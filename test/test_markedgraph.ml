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
  Alcotest.(check bool) "live and safe" true (Mg.is_live g && Mg.is_safe g);
  (* Arc on no cycle. *)
  let h = Mg.make ~nodes:2 ~arcs:[ (0, 1, 1) ] in
  Alcotest.(check bool) "no cycle: unsafe" false (Mg.is_safe h)

let test_shortcut_chooses_min () =
  (* Two cycles through arc 0: one with 1 token, one with 2. *)
  let g =
    Mg.make ~nodes:3
      ~arcs:[ (0, 1, 0); (1, 0, 1); (1, 2, 1); (2, 0, 1) ]
  in
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

(* Test-local reference for the safety certificate: fewest tokens between
   every pair of nodes by Floyd–Warshall over token weights, then the
   verdicts [check_live_safe] gives, in its order: a token-free cycle, an
   arc on no cycle, else the first arc (destinations ascending, per
   destination the highest arc index first) on no cycle of at most one
   token.  Returns [is_safe] and the [check_live_safe] result. *)
let reference_check ~nodes arcs =
  let inf = max_int / 4 in
  let dist = Array.make_matrix nodes nodes inf in
  for v = 0 to nodes - 1 do
    dist.(v).(v) <- 0
  done;
  Array.iter (fun (s, d, k) -> if k < dist.(s).(d) then dist.(s).(d) <- k) arcs;
  for m = 0 to nodes - 1 do
    let dm = dist.(m) in
    for i = 0 to nodes - 1 do
      let di = dist.(i) in
      let dim = di.(m) in
      if dim < inf then
        for j = 0 to nodes - 1 do
          if dim + dm.(j) < di.(j) then di.(j) <- dim + dm.(j)
        done
    done
  done;
  let cycle_tokens (s, d, k) = k + dist.(d).(s) in
  let scan_order =
    List.concat_map
      (fun v ->
        List.filter (fun a -> let _, d, _ = arcs.(a) in d = v)
          (List.init (Array.length arcs) (fun a -> Array.length arcs - 1 - a)))
      (List.init nodes Fun.id)
  in
  let unsafe = List.find_opt (fun a -> cycle_tokens arcs.(a) > 1) scan_order in
  let verdict =
    if Array.exists (fun arc -> cycle_tokens arc = 0) arcs then
      Error "liveness: a directed cycle carries no token"
    else if Array.exists (fun arc -> cycle_tokens arc >= inf) arcs then
      Error "liveness: an arc lies on no directed cycle"
    else
      match unsafe with
      | None -> Ok ()
      | Some a ->
          let s, d, k = arcs.(a) in
          Error (Printf.sprintf "safety: arc %d (%d -> %d, %d tokens) can exceed one token" a s d k)
  in
  (unsafe = None, verdict)

let show_verdict = function Ok () -> "ok" | Error m -> m

(* [is_safe], [is_live] and [check_live_safe] against the reference. *)
let agrees label ~nodes arcs =
  let g = Mg.make ~nodes ~arcs:(Array.to_list arcs) in
  let safe, verdict = reference_check ~nodes arcs in
  Alcotest.(check string) (label ^ ": check_live_safe") (show_verdict verdict)
    (show_verdict (Mg.check_live_safe g));
  Alcotest.(check bool) (label ^ ": is_safe") safe (Mg.is_safe g);
  let live = match verdict with Error m -> String.sub m 0 9 <> "liveness:" | Ok () -> true in
  Alcotest.(check bool) (label ^ ": is_live") live (Mg.is_live g);
  verdict

(* Seeded random graphs with 0-, 1- and 2-token arcs, self-loops and
   parallel arcs; half the arcs get a reverse partner, as a PL data arc
   gets its acknowledge, mostly with the complementary marking. *)
let test_certificate_random () =
  let rng = Ee_util.Prng.create 2002 in
  let tok () = match Ee_util.Prng.int rng 8 with 0 -> 2 | k when k < 4 -> 1 | _ -> 0 in
  let seen = Hashtbl.create 8 in
  for case = 1 to 4000 do
    let nodes = 1 + Ee_util.Prng.int rng 7 in
    let arcs = ref [] in
    for _ = 0 to Ee_util.Prng.int rng 14 do
      let s = Ee_util.Prng.int rng nodes and d = Ee_util.Prng.int rng nodes and k = tok () in
      arcs := (s, d, k) :: !arcs;
      if Ee_util.Prng.bool rng then
        arcs := (d, s, if Ee_util.Prng.int rng 4 = 0 then tok () else 1 - min k 1) :: !arcs
    done;
    let arcs = Array.of_list (List.rev !arcs) in
    let kind =
      match agrees (Printf.sprintf "graph %d" case) ~nodes arcs with
      | Ok () -> "ok"
      | Error m -> String.sub m 0 (String.index m ':')
    in
    Hashtbl.replace seen kind (1 + Option.value ~default:0 (Hashtbl.find_opt seen kind))
  done;
  List.iter
    (fun kind ->
      Alcotest.(check bool) ("some graphs give " ^ kind) true
        (Option.value ~default:0 (Hashtbl.find_opt seen kind) >= 100))
    [ "ok"; "liveness"; "safety" ]

(* Each b01-b13 EE netlist's marked graph with one acknowledge arc dropped:
   every acknowledge of the small graphs, a seeded sample of four of the
   others.  [Flat.marked_graph] puts each non-self-loop data arc's
   acknowledge right after it. *)
let test_certificate_dropped_acks () =
  let rng = Ee_util.Prng.create 2002 in
  let broke = ref [] in
  List.iter
    (fun id ->
      let a = Ee_report.Pipeline.build (Ee_bench_circuits.Itc99.find id) in
      let flat = Ee_phased.Flat.of_pl ~caller:"test" a.Ee_report.Pipeline.pl_ee in
      let g = Ee_phased.Flat.marked_graph flat in
      let nodes = Mg.node_count g and arcs = Mg.arcs g in
      Alcotest.(check string) (id ^ " intact") "ok" (show_verdict (agrees id ~nodes arcs));
      let rec acks a acc =
        if a >= Array.length arcs then Array.of_list (List.rev acc)
        else
          let s, d, _ = arcs.(a) in
          if s = d then acks (a + 1) acc else acks (a + 2) ((a + 1) :: acc)
      in
      let acks = acks 0 [] in
      let picked =
        if nodes <= 100 then acks
        else Array.init 4 (fun _ -> acks.(Ee_util.Prng.int rng (Array.length acks)))
      in
      Array.iter
        (fun drop ->
          let label = Printf.sprintf "%s without arc %d" id drop in
          let kept = List.filteri (fun a _ -> a <> drop) (Array.to_list arcs) in
          match agrees label ~nodes (Array.of_list kept) with
          | Error m when String.sub m 0 7 = "safety:" -> broke := (label ^ ": " ^ m) :: !broke
          | _ -> ())
        picked)
    (List.init 13 (fun i -> Printf.sprintf "b%02d" (i + 1)));
  (* Without its acknowledge, data arc 66 of b01 can pile up tokens. *)
  let named =
    "b01 without arc 67: safety: arc 66 (22 -> 35, 0 tokens) can exceed one token"
  in
  Alcotest.(check bool) named true (List.mem named !broke)

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
      Alcotest.test_case "certificate = Floyd-Warshall on random graphs" `Quick
        test_certificate_random;
      Alcotest.test_case "certificate = Floyd-Warshall with an acknowledge dropped" `Slow
        test_certificate_dropped_acks;
    ] )
