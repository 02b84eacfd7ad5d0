module Mg = Ee_markedgraph.Marked_graph

(* Two nodes exchanging one token: the canonical live & safe 2-cycle. *)
let ping_pong = Mg.make ~nodes:2 ~arcs:[ (0, 1, 1); (1, 0, 0) ]

let test_ping_pong_live_safe () =
  Alcotest.(check bool) "live" true (Mg.is_live ping_pong);
  Alcotest.(check bool) "safe" true (Mg.is_safe ping_pong);
  Alcotest.(check bool) "check ok" true (Mg.check_live_safe ping_pong = Ok ())

let test_tokenless_cycle_not_live () =
  let g = Mg.make ~nodes:2 ~arcs:[ (0, 1, 0); (1, 0, 0) ] in
  Alcotest.(check bool) "zero-token cycle" false (Mg.is_live g);
  Alcotest.(check bool) "tokens_on_cycles" false (Mg.tokens_on_cycles_ok g)

let test_two_token_cycle_unsafe () =
  let g = Mg.make ~nodes:2 ~arcs:[ (0, 1, 1); (1, 0, 1) ] in
  Alcotest.(check bool) "live" true (Mg.is_live g);
  Alcotest.(check bool) "unsafe" false (Mg.is_safe g)

let test_arc_off_cycle () =
  let g = Mg.make ~nodes:3 ~arcs:[ (0, 1, 1); (1, 0, 0); (1, 2, 1) ] in
  Alcotest.(check bool) "arc to sink is on no cycle" false (Mg.all_arcs_on_cycles g);
  Alcotest.(check bool) "hence not live (paper's definition)" false (Mg.is_live g)

let test_min_cycle_tokens () =
  (* Triangle with a single token. *)
  let g = Mg.make ~nodes:3 ~arcs:[ (0, 1, 1); (1, 2, 0); (2, 0, 0) ] in
  Alcotest.(check (option int)) "arc 0" (Some 1) (Mg.min_cycle_tokens g 0);
  Alcotest.(check (option int)) "arc 1" (Some 1) (Mg.min_cycle_tokens g 1);
  Alcotest.(check bool) "live and safe" true (Mg.is_live g && Mg.is_safe g);
  (* Arc on no cycle. *)
  let h = Mg.make ~nodes:2 ~arcs:[ (0, 1, 1) ] in
  Alcotest.(check (option int)) "no cycle" None (Mg.min_cycle_tokens h 0)

let test_shortcut_chooses_min () =
  (* Two cycles through arc 0: one with 1 token, one with 2. *)
  let g =
    Mg.make ~nodes:3
      ~arcs:[ (0, 1, 0); (1, 0, 1); (1, 2, 1); (2, 0, 1) ]
  in
  Alcotest.(check (option int)) "min over cycles" (Some 1) (Mg.min_cycle_tokens g 0);
  (* The 2-token cycle through arcs 2-3 makes those arcs unsafe. *)
  Alcotest.(check bool) "unsafe" false (Mg.is_safe g)

let test_error_message () =
  let g = Mg.make ~nodes:2 ~arcs:[ (0, 1, 1); (1, 0, 1) ] in
  match Mg.check_live_safe g with
  | Error msg -> Alcotest.(check bool) "mentions safety" true (Astring_contains.contains msg "safety")
  | Ok () -> Alcotest.fail "expected safety violation"

let test_make_validation () =
  (match Mg.make ~nodes:1 ~arcs:[ (0, 5, 0) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected range error");
  match Mg.make ~nodes:1 ~arcs:[ (0, 0, -1) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected token error"

let test_token_game_ping_pong () =
  let m = Mg.initial_marking ping_pong in
  Alcotest.(check bool) "node 1 enabled" true (Mg.enabled ping_pong m 1);
  Alcotest.(check bool) "node 0 not enabled" false (Mg.enabled ping_pong m 0);
  Mg.fire ping_pong m 1;
  Alcotest.(check int) "token moved" 1 (Mg.tokens m 1);
  Alcotest.(check int) "consumed" 0 (Mg.tokens m 0);
  Alcotest.(check bool) "now node 0 enabled" true (Mg.enabled ping_pong m 0);
  Alcotest.check_raises "firing disabled node"
    (Invalid_argument "Marked_graph.fire: node not enabled") (fun () -> Mg.fire ping_pong m 1)

let test_token_game_random () =
  let rng = Ee_util.Prng.create 31 in
  match Mg.run_token_game ping_pong ~steps:1000 ~rng with
  | `Ok counts ->
      (* In a 2-node cycle, firing counts differ by at most one. *)
      Alcotest.(check bool) "balanced firing" true (abs (counts.(0) - counts.(1)) <= 1);
      Alcotest.(check int) "total fires" 1000 (counts.(0) + counts.(1))
  | `Unsafe _ -> Alcotest.fail "safe graph reported unsafe"
  | `Dead _ -> Alcotest.fail "live graph reported dead"

let test_token_game_detects_unsafe () =
  (* Node 0 fires freely into arc (0,1); node 1 needs both arcs, the second
     of which never fills — tokens pile up on the first. *)
  let g = Mg.make ~nodes:3 ~arcs:[ (0, 0, 1); (0, 1, 0); (2, 1, 0); (1, 2, 1) ] in
  let rng = Ee_util.Prng.create 7 in
  (match Mg.run_token_game g ~steps:1000 ~rng with
  | `Unsafe (_, m) ->
      (* The carried marking shows the pile-up. *)
      Alcotest.(check bool) "marking has a >1 arc" true
        (Array.exists (fun k -> k > 1) (Mg.marking_array m))
  | `Ok _ -> Alcotest.fail "expected unsafe"
  | `Dead _ -> Alcotest.fail "expected unsafe, got dead")

let test_token_game_on_pl_netlist () =
  (* The b03 arbiter's PL marked graph: random firing for thousands of steps
     never exceeds one token per arc and never deadlocks (live + safe,
     dynamically witnessed). *)
  let b = Ee_bench_circuits.Itc99.find "b03" in
  let nl = Ee_rtl.Techmap.run_rtl (b.Ee_bench_circuits.Itc99.build ()) in
  let pl = Ee_phased.Pl.of_netlist nl in
  let g = Ee_phased.Flat.marked_graph (Ee_phased.Flat.of_pl ~caller:"test" pl) in
  let rng = Ee_util.Prng.create 11 in
  match Mg.run_token_game g ~steps:5000 ~rng with
  | `Ok counts ->
      Alcotest.(check bool) "every node fired" true (Array.for_all (fun c -> c > 0) counts)
  | `Unsafe (a, _) -> Alcotest.failf "unsafe at arc %d" a
  | `Dead _ -> Alcotest.fail "deadlock"

let suite =
  ( "marked-graph",
    [
      Alcotest.test_case "ping-pong live+safe" `Quick test_ping_pong_live_safe;
      Alcotest.test_case "tokenless cycle not live" `Quick test_tokenless_cycle_not_live;
      Alcotest.test_case "two-token cycle unsafe" `Quick test_two_token_cycle_unsafe;
      Alcotest.test_case "arc off cycle" `Quick test_arc_off_cycle;
      Alcotest.test_case "min_cycle_tokens" `Quick test_min_cycle_tokens;
      Alcotest.test_case "min over multiple cycles" `Quick test_shortcut_chooses_min;
      Alcotest.test_case "error message" `Quick test_error_message;
      Alcotest.test_case "make validation" `Quick test_make_validation;
      Alcotest.test_case "token game ping-pong" `Quick test_token_game_ping_pong;
      Alcotest.test_case "token game random" `Quick test_token_game_random;
      Alcotest.test_case "token game detects unsafe" `Quick test_token_game_detects_unsafe;
      Alcotest.test_case "token game on PL netlist" `Quick test_token_game_on_pl_netlist;
    ] )
