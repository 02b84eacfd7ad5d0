module Ring = Ee_sim.Ring

let test_validation () =
  (match Ring.build ~stages:8 ~tokens:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected invalid tokens=0");
  match Ring.build ~stages:8 ~tokens:8 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected invalid tokens=stages"

let test_matches_theory () =
  (* The streaming simulator must reproduce the canopy bound exactly for
     unit-delay identity rings. *)
  List.iter
    (fun (stages, tokens) ->
      let r = Ring.build ~stages ~tokens in
      let measured = Ring.period ~waves:200 r in
      let theory = Ring.theoretical_period r in
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "s=%d t=%d" stages tokens)
        theory measured)
    [ (8, 1); (8, 2); (8, 4); (12, 3); (24, 6); (24, 12); (10, 7); (16, 15) ]

let test_token_limited_regime () =
  (* Below half occupancy the period falls as 1/tokens. *)
  let p tokens = Ring.period ~waves:150 (Ring.build ~stages:24 ~tokens) in
  Alcotest.(check (float 1e-6)) "1 token" 24. (p 1);
  Alcotest.(check (float 1e-6)) "2 tokens" 12. (p 2);
  Alcotest.(check (float 1e-6)) "4 tokens" 6. (p 4)

let test_handshake_floor () =
  (* At and beyond half occupancy the local handshake floor (2 gate
     delays) binds. *)
  List.iter
    (fun tokens ->
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "%d tokens floor" tokens)
        2.
        (Ring.period ~waves:150 (Ring.build ~stages:24 ~tokens)))
    [ 12; 16; 23 ]

let test_queue_insertion_reported () =
  (* Above half occupancy adjacent registers force queue buffers in. *)
  let dense = Ring.build ~stages:8 ~tokens:6 in
  Alcotest.(check bool) "stages grew" true (dense.Ring.actual_stages > 8);
  let sparse = Ring.build ~stages:8 ~tokens:2 in
  Alcotest.(check int) "no growth when sparse" 8 sparse.Ring.actual_stages

let test_ring_is_live_safe () =
  let r = Ring.build ~stages:12 ~tokens:5 in
  let mg = Ee_phased.Flat.marked_graph (Ee_phased.Flat.of_pl ~caller:"test" r.Ring.pl) in
  Alcotest.(check bool) "live" true (Ee_markedgraph.Marked_graph.is_live mg);
  Alcotest.(check bool) "safe" true (Ee_markedgraph.Marked_graph.is_safe mg)

let suite =
  ( "ring",
    [
      Alcotest.test_case "validation" `Quick test_validation;
      Alcotest.test_case "matches canopy theory" `Quick test_matches_theory;
      Alcotest.test_case "token-limited regime" `Quick test_token_limited_regime;
      Alcotest.test_case "handshake floor" `Quick test_handshake_floor;
      Alcotest.test_case "queue insertion" `Quick test_queue_insertion_reported;
      Alcotest.test_case "live and safe" `Quick test_ring_is_live_safe;
    ] )
