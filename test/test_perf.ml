module Tg = Ee_perf.Timed_graph
module Mcr = Ee_perf.Mcr
module Throughput = Ee_perf.Throughput
module Mg = Ee_markedgraph.Marked_graph
module Pl = Ee_phased.Pl
module Ss = Ee_sim.Stream_sim

let feq = Alcotest.float 1e-9

let build id =
  let b = Ee_bench_circuits.Itc99.find id in
  let nl = Ee_rtl.Techmap.run_rtl (b.Ee_bench_circuits.Itc99.build ()) in
  let pl = Pl.of_netlist nl in
  let pl_ee, _ = Ee_core.Synth.run pl in
  (pl, pl_ee)

let lambda_of g =
  match Mcr.solve g with
  | Some r -> r.Mcr.lambda
  | None -> Alcotest.fail "expected a cycle"

(* ---------------------------------------------------------------- *)
(* Hand-checkable graphs                                             *)
(* ---------------------------------------------------------------- *)

let arc src dst weight tokens = { Tg.src; dst; weight; tokens }

let test_hand_graphs () =
  (* Two-node handshake: forward arc with the token, backward without;
     period = sum of delays. *)
  let g = Tg.make ~nodes:2 ~arcs:[ arc 0 1 1.5 1; arc 1 0 2.5 0 ] in
  Alcotest.check feq "handshake" 4.0 (lambda_of g);
  (* Self-loop: one token, own delay. *)
  let g = Tg.make ~nodes:1 ~arcs:[ arc 0 0 3.0 1 ] in
  Alcotest.check feq "self loop" 3.0 (lambda_of g);
  (* Two competing cycles: 6/2 < 7/1 — the critical one wins. *)
  let g =
    Tg.make ~nodes:3
      ~arcs:[ arc 0 1 3.0 1; arc 1 0 3.0 1; arc 1 2 5.0 0; arc 2 1 2.0 1 ]
  in
  Alcotest.check feq "competing cycles" 7.0 (lambda_of g);
  (match Mcr.solve g with
  | Some r ->
      Alcotest.(check (list int)) "critical cycle nodes" [ 1; 2 ] (List.sort compare r.Mcr.cycle)
  | None -> Alcotest.fail "cycle expected");
  (* Multi-token arc: 6 units of work, 3 tokens. *)
  let g = Tg.make ~nodes:2 ~arcs:[ arc 0 1 4.0 2; arc 1 0 2.0 1 ] in
  Alcotest.check feq "multi-token cycle" 2.0 (lambda_of g);
  (* Acyclic graph: no steady-state constraint. *)
  let g = Tg.make ~nodes:3 ~arcs:[ arc 0 1 1.0 0; arc 1 2 1.0 1 ] in
  Alcotest.(check bool) "acyclic -> None" true (Mcr.solve g = None);
  Alcotest.(check bool) "karp acyclic -> None" true (Mcr.karp g = None)

let test_not_live_detected () =
  let g = Tg.make ~nodes:2 ~arcs:[ arc 0 1 1.0 0; arc 1 0 1.0 0 ] in
  (match Mcr.solve g with
  | exception Mcr.Not_live _ -> ()
  | _ -> Alcotest.fail "Howard must reject a token-free cycle");
  match Mcr.karp g with
  | exception Mcr.Not_live _ -> ()
  | _ -> Alcotest.fail "Karp must reject a token-free cycle"

let test_slack_and_potentials () =
  let g =
    Tg.make ~nodes:3
      ~arcs:[ arc 0 1 3.0 1; arc 1 0 3.0 1; arc 1 2 5.0 0; arc 2 1 2.0 1 ]
  in
  let lambda = lambda_of g in
  let slacks = Mcr.arc_slacks g ~lambda in
  (* The 7/1 cycle (arcs 2 and 3) is tight; the 6/2 cycle has play. *)
  Alcotest.check feq "critical arc slack" 0.0 slacks.(2);
  Alcotest.check feq "critical arc slack" 0.0 slacks.(3);
  Alcotest.(check bool) "non-critical cycle has slack" true
    (slacks.(0) +. slacks.(1) > 1.0);
  Array.iter
    (fun s -> Alcotest.(check bool) "slack non-negative" true (s >= -1e-9))
    slacks;
  (* Below the MCR there is a positive cycle: potentials must refuse. *)
  match Mcr.potentials g ~lambda:(lambda -. 0.5) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "potentials below lambda* must diverge"

(* ---------------------------------------------------------------- *)
(* Karp vs Howard on random live graphs                              *)
(* ---------------------------------------------------------------- *)

(* Random graphs guaranteed live: nodes get random levels; an arc carries a
   token unless it goes strictly uphill, so every token-free path ascends
   and no token-free cycle can close.  A Hamiltonian backbone keeps the
   graph strongly connected (hence every node on a cycle). *)
let random_live_arcs rng =
  let open Ee_util in
  let n = 3 + Prng.int rng 22 in
  let levels = Array.init n (fun _ -> Prng.int rng 6) in
  let arcs = ref [] in
  let add u v =
    let tokens =
      if levels.(u) < levels.(v) && Prng.bool rng then 0
      else 1 + Prng.int rng 2
    in
    let weight = float_of_int (Prng.int rng 1000) /. 100. in
    arcs := arc u v weight tokens :: !arcs
  in
  for u = 0 to n - 1 do
    add u ((u + 1) mod n)
  done;
  let extra = n + Prng.int rng (2 * n) in
  for _ = 1 to extra do
    let u = Prng.int rng n and v = Prng.int rng n in
    add u v
  done;
  (n, !arcs)

let random_live_graph rng =
  let nodes, arcs = random_live_arcs rng in
  Tg.make ~nodes ~arcs

let test_karp_equals_howard_random () =
  let rng = Ee_util.Prng.create 7701 in
  for i = 1 to 200 do
    let g = random_live_graph rng in
    let howard = lambda_of g in
    match Mcr.karp g with
    | None -> Alcotest.failf "graph %d: Karp found no cycle" i
    | Some karp ->
        if Float.abs (karp -. howard) > 1e-9 *. Float.max 1. (Float.abs howard)
        then
          Alcotest.failf "graph %d: Howard %.12f vs Karp %.12f" i howard karp
  done

(* ---------------------------------------------------------------- *)
(* Rings: analytic period vs canopy bound vs simulator               *)
(* ---------------------------------------------------------------- *)

let test_ring_matches_canopy () =
  List.iter
    (fun (stages, tokens) ->
      let ring = Ee_sim.Ring.build ~stages ~tokens in
      let a = Throughput.analyze ring.Ee_sim.Ring.pl in
      let bound = Ee_sim.Ring.theoretical_period ring in
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "ring %d/%d analytic = canopy" stages tokens)
        bound a.Throughput.lambda;
      let measured = Ee_sim.Ring.period ~waves:240 ring in
      Alcotest.(check bool)
        (Printf.sprintf "ring %d/%d analytic ~ measured" stages tokens)
        true
        (Float.abs (measured -. a.Throughput.lambda) /. a.Throughput.lambda
        < 0.02))
    [ (8, 2); (8, 4); (9, 3); (12, 5) ]

(* ---------------------------------------------------------------- *)
(* ITC99: Karp cross-check and simulator agreement                   *)
(* ---------------------------------------------------------------- *)

let benchmarks =
  [ "b01"; "b02"; "b03"; "b04"; "b05"; "b06"; "b07"; "b08"; "b09"; "b10";
    "b11"; "b12"; "b13"; "b14"; "b15" ]

let test_itc99_karp_agrees () =
  List.iter
    (fun id ->
      let pl, pl_ee = build id in
      List.iter
        (fun (tag, netlist, mode) ->
          let m = Tg.of_pl ?mode netlist in
          let howard = lambda_of m.Tg.graph in
          match Mcr.karp m.Tg.graph with
          | None -> Alcotest.failf "%s %s: no cycle?" id tag
          | Some karp ->
              if Float.abs (karp -. howard) > 1e-9 *. Float.max 1. howard then
                Alcotest.failf "%s %s: Howard %.12f vs Karp %.12f" id tag
                  howard karp)
        [ ("no-ee", pl, None); ("ee", pl_ee, Some Tg.Eager) ])
    benchmarks

let test_itc99_analysis_matches_sim () =
  List.iter
    (fun id ->
      let pl, _ = build id in
      let a = Throughput.analyze pl in
      let r = Ss.run_random pl ~waves:240 ~seed:11 in
      let err =
        Float.abs (r.Ss.cycle_time -. a.Throughput.lambda)
        /. a.Throughput.lambda *. 100.
      in
      if err > 5.0 then
        Alcotest.failf "%s: analytic %.4f vs simulated %.4f (%.2f%% off)" id
          a.Throughput.lambda r.Ss.cycle_time err)
    benchmarks

let test_itc99_ee_modes_bracket_sim () =
  List.iter
    (fun id ->
      let _, pl_ee = build id in
      let eager = (Throughput.analyze ~mode:Tg.Eager pl_ee).Throughput.lambda in
      let expected = (Throughput.analyze pl_ee).Throughput.lambda in
      let guarded =
        (Throughput.analyze ~mode:Tg.Guarded pl_ee).Throughput.lambda
      in
      Alcotest.(check bool) (id ^ " eager <= expected") true
        (eager <= expected +. 1e-9);
      Alcotest.(check bool) (id ^ " expected <= guarded") true
        (expected <= guarded +. 1e-9);
      let r = Ss.run_random pl_ee ~waves:240 ~seed:11 in
      Alcotest.(check bool)
        (Printf.sprintf "%s sim %.3f within [eager %.3f - 5%%, guarded %.3f + 5%%]"
           id r.Ss.cycle_time eager guarded)
        true
        (r.Ss.cycle_time >= (eager *. 0.95) -. 1e-9
        && r.Ss.cycle_time <= (guarded *. 1.05) +. 1e-9))
    [ "b01"; "b04"; "b06"; "b09"; "b12" ]

let test_jittered_delays_agree () =
  (* Per-gate delay schedules flow through both the analyzer and the
     streaming simulator; the analytic period must keep tracking the
     measured one when the unit-delay assumption breaks. *)
  List.iter
    (fun id ->
      let pl, _ = build id in
      let delays = Ee_sim.Delay_model.jittered pl ~gate_delay:1.0 ~spread:0.4 ~seed:5 in
      let a = Throughput.analyze ~delays pl in
      let r = Ss.run_random ~delays pl ~waves:240 ~seed:11 in
      let err =
        Float.abs (r.Ss.cycle_time -. a.Throughput.lambda)
        /. a.Throughput.lambda *. 100.
      in
      if err > 5.0 then
        Alcotest.failf "%s jittered: analytic %.4f vs simulated %.4f (%.2f%%)"
          id a.Throughput.lambda r.Ss.cycle_time err)
    [ "b01"; "b06"; "b11" ]

let test_critical_cycle_names_gates () =
  let pl, _ = build "b04" in
  let a = Throughput.analyze pl in
  Alcotest.(check bool) "critical cycle non-empty" true
    (a.Throughput.critical_gates <> []);
  Alcotest.(check bool) "cycle string closes" true
    (String.length a.Throughput.critical_string > 0
    &&
    match String.index_opt a.Throughput.critical_string '>' with
    | Some _ -> true
    | None -> false);
  (* Critical gates have (near-)zero slack. *)
  List.iter
    (fun g ->
      Alcotest.(check bool) "critical gate slack ~ 0" true
        (a.Throughput.gate_slack.(g) < 1e-6))
    a.Throughput.critical_gates;
  (* Bottlenecks are sorted by slack and start with a critical gate. *)
  match Throughput.bottlenecks a 5 with
  | (g0, s0) :: _ ->
      Alcotest.(check bool) "tightest slack ~ 0" true (s0 < 1e-6);
      Alcotest.(check bool) "tightest is critical" true
        (List.mem g0 a.Throughput.critical_gates)
  | [] -> Alcotest.fail "no bottlenecks reported"

(* On every b01-b13 netlist, with and without EE, [Throughput.critical_cycle]
   is the full analysis's string, and [Throughput.round]'s analysis is
   [analyze]'s. *)
let test_critical_cycle_alone () =
  List.iter
    (fun id ->
      let pl, pl_ee = build id in
      List.iter
        (fun (tag, pl) ->
          let a = Throughput.analyze pl in
          Alcotest.(check string) (id ^ tag) a.Throughput.critical_string
            (Throughput.critical_cycle pl);
          let a', _ = Throughput.round pl in
          if
            not
              (Int64.bits_of_float a.Throughput.lambda = Int64.bits_of_float a'.Throughput.lambda
              && a.Throughput.critical_gates = a'.Throughput.critical_gates
              && a.Throughput.gate_slack = a'.Throughput.gate_slack)
          then Alcotest.failf "%s%s: the round's analysis differs" id tag)
        [ ("", pl); (" EE", pl_ee) ])
    [ "b01"; "b02"; "b03"; "b04"; "b05"; "b06"; "b07"; "b08"; "b09"; "b10"; "b11"; "b12"; "b13" ]

let test_mcr_selection () =
  (* b12 is loop-bound (EE demonstrably helps it); the MCR-driven policy
     must find gains there with no more triggers than Eq. 1 spends. *)
  let b = Ee_bench_circuits.Itc99.find "b12" in
  let nl = Ee_rtl.Techmap.run_rtl (b.Ee_bench_circuits.Itc99.build ()) in
  let pl = Pl.of_netlist nl in
  let _, rep_eq1 = Ee_core.Synth.run pl in
  let pl_mcr, rep_mcr = Ee_core.Mcr_select.run pl in
  Alcotest.(check bool) "inserts at least one pair" true
    (rep_mcr.Ee_core.Synth.ee_gates >= 1);
  Alcotest.(check bool) "spends fewer triggers than Eq. 1" true
    (rep_mcr.Ee_core.Synth.ee_gates <= rep_eq1.Ee_core.Synth.ee_gates);
  (* The predicted period must improve over no-EE... *)
  let lam_no_ee = (Throughput.analyze pl).Throughput.lambda in
  let lam_mcr = (Throughput.analyze pl_mcr).Throughput.lambda in
  Alcotest.(check bool) "predicted period improves" true (lam_mcr < lam_no_ee);
  (* ...and the measured gain must be real. *)
  let gain = Ss.throughput_gain pl pl_mcr ~waves:200 ~seed:4 in
  Alcotest.(check bool) "measured gain positive" true (gain > 0.);
  (* EE must never change values: spot-check against the golden model. *)
  let rng = Ee_util.Prng.create 99 in
  let width = Array.length (Ee_netlist.Netlist.inputs nl) in
  let vectors = List.init 60 (fun _ -> Ee_util.Prng.bool_vector rng width) in
  let golden =
    let st = ref (Ee_netlist.Netlist.initial_state nl) in
    List.map
      (fun vec ->
        let outs, st' = Ee_netlist.Netlist.step nl !st vec in
        st := st';
        outs)
      vectors
  in
  let r = Ss.run pl_mcr ~vectors in
  List.iteri
    (fun w exp ->
      if r.Ss.outputs.(w) <> exp then
        Alcotest.failf "wave %d differs from golden model" w)
    golden;
  (* The extended marked graph stays live and safe. *)
  let flat = Ee_phased.Flat.of_pl ~caller:"test" pl_mcr in
  match Mg.check_live_safe (Ee_phased.Flat.marked_graph flat) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "not live/safe: %s" e

(* ---------------------------------------------------------------- *)
(* Warm-started, λ-only trial re-analysis                            *)
(* ---------------------------------------------------------------- *)

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* A seeded random policy: each node's successor is the head of one of its
   out-arcs, drawn uniformly. *)
let random_policy rng (g : Tg.t) =
  let heads = Array.make g.Tg.nodes [] in
  Array.iteri (fun k s -> heads.(s) <- g.Tg.arc_dst.(k) :: heads.(s)) g.Tg.arc_src;
  Array.map
    (function [] -> -1 | l -> List.nth l (Ee_util.Prng.int rng (List.length l)))
    heads

(* From every hint, [solve] must reproduce the cold solve's λ bit for bit;
   with [karp], the cold λ must also match Karp. *)
let check_hints ~karp what g hints =
  let cold = Mcr.solve g in
  (match (cold, karp) with
  | Some c, true -> (
      match Mcr.karp g with
      | Some k when Float.abs (k -. c.Mcr.lambda) <= 1e-9 *. Float.max 1. (Float.abs k) -> ()
      | k ->
          Alcotest.failf "%s: Howard %h vs Karp %s" what c.Mcr.lambda
            (match k with Some k -> Printf.sprintf "%h" k | None -> "none"))
  | _ -> ());
  List.iter
    (fun (tag, hint) ->
      match (cold, Mcr.solve ~hint g) with
      | None, None -> ()
      | Some c, Some w when bits_equal c.Mcr.lambda w.Mcr.lambda -> ()
      | _ -> Alcotest.failf "%s: the %s hint changes lambda" what tag)
    hints

let test_warm_start_random () =
  let rng = Ee_util.Prng.create 7701 and policies = Ee_util.Prng.create 4242 in
  for i = 1 to 200 do
    let nodes, arcs = random_live_arcs rng in
    let g = Tg.make ~nodes ~arcs in
    (* The base graph lacks one arc; its policy keeps node ids. *)
    let base = Tg.make ~nodes ~arcs:(List.tl arcs) in
    let mapped = match Mcr.solve base with Some r -> r.Mcr.policy | None -> [||] in
    check_hints ~karp:true (Printf.sprintf "graph %d" i) g
      [ ("base policy", mapped); ("random policy", random_policy policies g) ];
    (* The λ-only entry point runs the same iteration. *)
    let solved = Option.map (fun r -> r.Mcr.lambda) (Mcr.solve g) in
    List.iter
      (fun l ->
        if Option.map Int64.bits_of_float l <> Option.map Int64.bits_of_float solved then
          Alcotest.failf "graph %d: Mcr.lambda differs from Mcr.solve" i)
      [ Mcr.lambda g; Mcr.lambda ~hint:mapped g ]
  done

(* [Mcr.lambda ~cutoff] against the uncut λ, at cutoffs below, at and
   above it: bit for bit λ when λ <= cutoff, otherwise a value in
   (cutoff, λ].  Returns how many of the solves stopped early. *)
let check_cutoffs what ?hint g =
  match Mcr.lambda ?hint g with
  | None -> 0
  | Some l ->
      List.fold_left
        (fun stopped cutoff ->
          match Mcr.lambda ?hint ~cutoff g with
          | Some r when l <= cutoff ->
              if not (bits_equal r l) then
                Alcotest.failf "%s: lambda %h <= cutoff %h, but the cut solve gave %h" what l
                  cutoff r;
              stopped
          | Some r ->
              if not (cutoff < r && r <= l) then
                Alcotest.failf "%s: cutoff %h below lambda %h, but the cut solve gave %h" what
                  cutoff l r;
              if bits_equal r l then stopped else stopped + 1
          | None -> Alcotest.failf "%s: no cycle under cutoff %h" what cutoff)
        0
        [
          neg_infinity; 0.; l /. 2.; l *. (1. -. 1e-6); Float.pred l; l; Float.succ l;
          l *. 2.; infinity;
        ]

let test_cutoff_random () =
  let rng = Ee_util.Prng.create 7701 and policies = Ee_util.Prng.create 4242 in
  let stopped = ref 0 in
  for i = 1 to 200 do
    let g = random_live_graph rng in
    let what = Printf.sprintf "graph %d" i in
    stopped :=
      !stopped + check_cutoffs what g + check_cutoffs what ~hint:(random_policy policies g) g
  done;
  Alcotest.(check bool) (Printf.sprintf "%d solves stopped early" !stopped) true (!stopped > 0)

let test_hint_ignores_bad_nodes () =
  (* Node 3 has no out-arc, so it is dead; node 2 leads only to it. *)
  let g =
    Tg.make ~nodes:4
      ~arcs:[ arc 0 1 2.0 1; arc 1 0 1.0 0; arc 1 2 5.0 1; arc 2 3 1.0 0; arc 0 0 2.5 1 ]
  in
  let cold = Option.get (Mcr.solve g) in
  List.iter
    (fun (tag, hint) ->
      match Mcr.solve ~hint g with
      | Some w ->
          Alcotest.(check bool) (tag ^ ": same lambda") true (bits_equal cold.Mcr.lambda w.Mcr.lambda);
          Alcotest.(check (list int)) (tag ^ ": same cycle") cold.Mcr.cycle w.Mcr.cycle
      | None -> Alcotest.failf "%s: no cycle" tag
      | exception e -> Alcotest.failf "%s: %s" tag (Printexc.to_string e))
    [
      ("dead successor", [| 3; 3; 3; 3 |]);
      ("out of range", [| 17; -5; max_int; min_int |]);
      ("not a successor", [| 1; 2; 0; 0 |]);
      ("short", [| 0 |]);
      ("long", [| 1; 0; 0; 0; 9; 9 |]);
      ("empty", [||]);
    ];
  Alcotest.(check int) "dead node has no policy" (-1) cold.Mcr.policy.(3);
  Alcotest.(check int) "dead-end node has no policy" (-1) cold.Mcr.policy.(2)

(* A cut solve started on the self-loop at node 0 (ratio [a]) of a graph
   whose maximum is the 2-cycle through node 1 (ratio 6 or 0.6), with the
   cutoff just below [a].  When the weights sum exactly the self-loop
   decides the outcome and the solve returns its ratio; otherwise the
   solve keeps its margin and stops only on the 2-cycle. *)
let test_exact_stop () =
  let run a b =
    let g = Tg.make ~nodes:2 ~arcs:[ arc 0 0 a 1; arc 0 1 b 1; arc 1 0 b 0 ] in
    let cutoff = a -. 1e-13 in
    match Mcr.lambda ~hint:[| 0; 0 |] ~cutoff g with
    | Some x ->
        let l = Option.get (Mcr.lambda g) in
        if not (cutoff < x && x <= l) then
          Alcotest.failf "a = %h: %h outside (%h, %h]" a x cutoff l;
        x
    | None -> Alcotest.fail "no cycle"
  in
  Alcotest.(check (float 0.)) "dyadic weights stop at the first deciding cycle" 2. (run 2. 3.);
  Alcotest.(check bool) "non-dyadic weights keep the margin" true (run 0.2 0.3 > 0.5);
  (* 2^-50 is dyadic, but two nodes of weight up to 3 span more than 2^52
     such units; with 2^-49 they do not. *)
  Alcotest.(check bool) "too many fraction bits keep the margin" true
    (run (2. +. 0x1p-50) 3. > 5.);
  Alcotest.(check (float 0.)) "just few enough fraction bits" (2. +. 0x1p-49)
    (run (2. +. 0x1p-49) 3.)

(* A spliced trial sums exactly when its own weights do, whatever the
   base's: on a 5-node graph, a weight of 3 + 2^-50 is too fine (5 x 3
   spans more than 2^52 of its units), and the delta either replaces it
   by 3 or brings it in.  Started on the self-loop (ratio 2) and cut just
   below it, an exact solve returns 2 and an inexact one the ring's
   ratio; the spliced and the rebuilt graph must agree. *)
let test_splice_exactness () =
  let fine = 3. +. 0x1p-50 in
  let ring last =
    [ arc 0 0 2. 1; arc 0 1 3. 0; arc 1 2 3. 0; arc 2 3 3. 0; arc 3 4 3. 0; arc 4 0 last 1 ]
  in
  let swap last =
    {
      Tg.nodes = 5;
      output = 4;
      trigger = 4;
      drop = [| 5 |];
      add = Tg.make ~nodes:5 ~arcs:[ arc 4 0 last 1 ];
    }
  in
  let cutoff = 2. -. 1e-13 and hint = [| 0; 2; 3; 4; 0 |] in
  List.iter
    (fun (tag, base, last, exact) ->
      let g = Tg.make ~nodes:5 ~arcs:(ring base) in
      let d = swap last in
      let spliced = Option.get (Mcr.splice_lambda ~hint ~cutoff (Mcr.context g) d)
      and rebuilt = Option.get (Mcr.lambda ~hint ~cutoff (Tg.splice g d)) in
      if not (bits_equal spliced rebuilt) then
        Alcotest.failf "%s: spliced %h, rebuilt %h" tag spliced rebuilt;
      Alcotest.(check bool) tag exact (spliced = 2.))
    [ ("fine arc dropped", fine, 3., true); ("fine arc added", 3., fine, false) ]

(* ---------------------------------------------------------------- *)
(* Spliced trials                                                    *)
(* ---------------------------------------------------------------- *)

let outcome f = match f () with r -> Ok r | exception Mcr.Not_live msg -> Error msg

let show = function
  | Ok (Some l) -> Printf.sprintf "%h" l
  | Ok None -> "acyclic"
  | Error msg -> "Not_live: " ^ msg

(* Equal periods bit for bit, or the same [Not_live] message: the
   token-free check's own, naming as many nodes as the full check. *)
let same a b =
  match (a, b) with
  | Ok (Some x), Ok (Some y) -> bits_equal x y
  | Ok None, Ok None -> true
  | Error m, Error m' -> String.equal m m'
  | _ -> false

(* [Mcr.splice_lambda] on [ctx], the context of [g], must be [Mcr.lambda]
   on the spliced graph, bit for bit and under every cutoff, or raise
   [Not_live] when it does.  Returns the uncut outcome. *)
let check_splice what ?hint ctx g (d : Tg.delta) =
  let whole = Tg.splice g d in
  let uncut = outcome (fun () -> Mcr.lambda ?hint whole) in
  let cutoffs =
    match uncut with
    | Ok (Some l) -> [ infinity; l; Float.pred l; l *. (1. -. 1e-6); l /. 2.; neg_infinity ]
    | _ -> [ infinity ]
  in
  List.iter
    (fun cutoff ->
      let spliced = outcome (fun () -> Mcr.splice_lambda ?hint ~cutoff ctx d)
      and rebuilt = outcome (fun () -> Mcr.lambda ?hint ~cutoff whole) in
      if not (same spliced rebuilt) then
        Alcotest.failf "%s: cutoff %h: spliced %s, rebuilt %s" what cutoff (show spliced)
          (show rebuilt))
    cutoffs;
  uncut

(* Random deltas on random live graphs, several on each context so that
   the scratch is reused: drops (sometimes of every heaviest arc, so the
   weight scale changes), new nodes (some left without an out-arc, so
   pruning runs) and added arcs (some token-free, so some trials close a
   token-free cycle). *)
let test_splice_random () =
  let open Ee_util in
  let rng = Prng.create 5150 and policies = Prng.create 77 in
  let live = ref 0 and not_live = ref 0 in
  for i = 1 to 300 do
    let g = random_live_graph rng in
    let ctx = Mcr.context g in
    let hint = random_policy policies g in
    let m = Tg.arc_count g in
    let heaviest = Array.fold_left Float.max 0. g.Tg.arc_weight in
    for t = 1 to 4 do
      let nodes = g.Tg.nodes + Prng.int rng 3 in
      let drop = Array.make m false in
      for _ = 1 to Prng.int rng 5 do
        drop.(Prng.int rng m) <- true
      done;
      if Prng.int rng 4 = 0 then
        Array.iteri (fun k w -> if w = heaviest then drop.(k) <- true) g.Tg.arc_weight;
      let drop = List.filter (fun k -> drop.(k)) (List.init m Fun.id) in
      let arcs =
        List.init (Prng.int rng 7) (fun _ ->
            arc (Prng.int rng nodes) (Prng.int rng nodes)
              (float_of_int (Prng.int rng 1200) /. 100.)
              (if Prng.int rng 6 = 0 then 0 else 1))
      in
      let d =
        {
          Tg.nodes;
          output = nodes - 1;
          trigger = nodes - 1;
          drop = Array.of_list drop;
          add = Tg.make ~nodes ~arcs;
        }
      in
      match check_splice (Printf.sprintf "graph %d delta %d" i t) ~hint ctx g d with
      | Error _ -> incr not_live
      | Ok _ -> incr live
    done
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d live and %d not-live deltas" !live !not_live)
    true
    (!live > 100 && !not_live > 10)

let test_splice_not_live () =
  (* The ring 0 -> 1 -> 2 -> 0 with its token on the closing arc. *)
  let g = Tg.make ~nodes:3 ~arcs:[ arc 0 1 1.0 0; arc 1 2 1.0 0; arc 2 0 1.0 1 ] in
  let ctx = Mcr.context g in
  let detour tokens =
    {
      Tg.nodes = 4;
      output = 3;
      trigger = 3;
      drop = [| 2 |];
      add = Tg.make ~nodes:4 ~arcs:[ arc 2 3 0.5 0; arc 3 0 0.5 tokens ];
    }
  in
  (* Re-routing the closing arc through a new node without its token
     closes a token-free cycle. *)
  let d = detour 0 in
  let spliced = outcome (fun () -> Mcr.splice_lambda ctx d)
  and rebuilt = outcome (fun () -> Mcr.lambda (Tg.splice g d)) in
  (match rebuilt with Error _ -> () | r -> Alcotest.failf "rebuilt: %s" (show r));
  if not (same spliced rebuilt) then
    Alcotest.failf "spliced: %s, rebuilt: %s" (show spliced) (show rebuilt);
  (* With its token the detour is live, and the context still serves. *)
  Alcotest.(check (option (float 0.))) "live detour" (Some 3.) (Mcr.splice_lambda ctx (detour 1));
  Alcotest.(check (option (float 0.)))
    "base unchanged" (Some 3.)
    (Option.map (fun r -> r.Mcr.lambda) (Mcr.solve_in ctx))

(* The greedy MCR planner as it was before trials became λ-only and
   warm-started: every trial is a cold, full [Throughput.analyze].  The
   differential test holds [Mcr_select.plan] to it; [on_trial] sees each
   round's base analysis with each trial netlist. *)
module Reference_plan = struct
  module Ms = Ee_core.Mcr_select
  module Synth = Ee_core.Synth
  module Trigger = Ee_core.Trigger
  module Cost = Ee_core.Cost

  let analyze (o : Ms.options) pl =
    Throughput.analyze ~gate_delay:o.Ms.gate_delay ~ee_overhead:o.Ms.ee_overhead pl

  let viable_choices (o : Ms.options) pl master func fanin =
    let arrivals = Array.map (fun f -> Pl.arrival pl f) fanin in
    let support = Ee_logic.Lut4.support func in
    let m_max = Ee_util.Bits.fold_bits support (fun acc p -> max acc arrivals.(p)) 0 in
    if m_max = 0 then []
    else
      Trigger.candidates func
      |> List.filter_map (fun cand ->
             let t_max =
               Ee_util.Bits.fold_bits cand.Trigger.subset (fun acc p -> max acc arrivals.(p)) 0
             in
             if Cost.speedup_possible ~m_max ~t_max && cand.Trigger.coverage >= o.Ms.min_coverage
             then
               let cost =
                 Cost.cost Cost.Arrival_weighted ~coverage:cand.Trigger.coverage ~m_max ~t_max
               in
               Some { Synth.master; chosen = cand; m_max; t_max; cost }
             else None)

  (* Masters ascending, and each round's chosen pair with the λ it was
     trialled at, in insertion order.  [on_trial] sees the round's netlist
     and base analysis, the trial's master and request, and the trial
     netlist. *)
  let plan ?(on_trial = fun _ _ _ _ _ -> ()) (o : Ms.options) pl =
    let gates = Pl.gates pl in
    let rounds = ref [] in
    let budget_left inserted =
      match o.Ms.max_pairs with Some k -> List.length inserted < k | None -> true
    in
    let rec round pl_cur inserted =
      let a = analyze o pl_cur in
      let lambda = a.Throughput.lambda in
      if lambda <= 0. || not (budget_left inserted) then inserted
      else begin
        let eligible = ref [] in
        Array.iteri
          (fun i g ->
            match g.Pl.kind with
            | Pl.Gate func
              when Pl.ee pl_cur i = None && a.Throughput.gate_slack.(i) <= 1e-7 *. lambda ->
                eligible := (i, func, g.Pl.fanin) :: !eligible
            | _ -> ())
          gates;
        let target = lambda *. (1. -. (o.Ms.min_gain_percent /. 100.)) in
        let best = ref None in
        List.iter
          (fun (master, func, fanin) ->
            List.iter
              (fun choice ->
                let req = Ee_core.Synth.request choice.Synth.chosen choice.Synth.cost in
                let trial = Pl.with_ee pl_cur [ (master, req) ] in
                on_trial pl_cur a master req trial;
                let lambda' = (analyze o trial).Throughput.lambda in
                let beats =
                  match !best with
                  | Some (_, l) -> lambda' < l -. 1e-12
                  | None -> lambda' <= target
                in
                if beats then best := Some (choice, lambda'))
              (viable_choices o pl_cur master func fanin))
          (List.rev !eligible);
        match !best with
        | None -> inserted
        | Some (choice, lambda') ->
            rounds := (choice, lambda') :: !rounds;
            round
              (Pl.with_ee pl_cur
                 [ (choice.Synth.master, Ee_core.Synth.request choice.Synth.chosen choice.Synth.cost) ])
              (choice :: inserted)
      end
    in
    let choices = round pl [] |> List.sort (fun a b -> compare a.Synth.master b.Synth.master) in
    (choices, List.rev !rounds)
end

(* The no-EE netlists of b01-b13, then those of every family at widths 4
   and 8. *)
let itc99_netlists () =
  let module Itc99 = Ee_bench_circuits.Itc99 in
  List.filter_map
    (fun (b : Itc99.benchmark) ->
      if b.Itc99.id <= "b13" then
        Some (b.Itc99.id, Pl.of_netlist (Ee_rtl.Techmap.run_rtl (b.Itc99.build ())))
      else None)
    Itc99.all

let family_netlists () =
  let module Families = Ee_bench_circuits.Families in
  List.concat_map
    (fun (f : Families.family) ->
      List.map
        (fun w ->
          ( Printf.sprintf "%s%d" f.Families.name w,
            Pl.of_netlist (Ee_rtl.Techmap.run_rtl (f.Families.build w)) ))
        [ 4; 8 ])
    Families.all

let plan_netlists () = itc99_netlists () @ family_netlists ()

type reference_pass = {
  plans :
    (string * Pl.t * (Ee_core.Synth.gate_choice list * (Ee_core.Synth.gate_choice * float) list))
    list;
  trials : int;
  off_cycle : int;  (** Trials whose master is off the base critical cycle. *)
  stopped : int;  (** Cut solves that stopped before converging. *)
  spliced : int;  (** Trials checked as deltas on their round's graph. *)
  decided : int;  (** Cut spliced solves whose win or loss was checked. *)
  certified : int;  (** Trials checked against a kept cycle avoiding their master. *)
}

(* The spliced trial [d] of [master] on [b], the compiled [pl_cur], renamed
   onto the events of [m], the rebuilt trial graph, has [m]'s arcs: the
   same multiset of (source, destination, weight, tokens). *)
let check_spliced_arcs what pl_cur b master (d : Tg.delta) (m : Tg.mapping) =
  let bm = Tg.mapping b in
  let base_nodes = bm.Tg.graph.Tg.nodes and trigger = Array.length (Pl.gates pl_cur) in
  let rename e =
    if e = d.Tg.trigger then m.Tg.complete_event.(trigger)
    else if e >= base_nodes then m.Tg.output_event.(master)
    else
      let gate = bm.Tg.event_gate.(e) in
      if bm.Tg.event_early.(e) then m.Tg.output_event.(gate) else m.Tg.complete_event.(gate)
  in
  let arcs (g : Tg.t) f =
    List.sort compare
      (List.init (Tg.arc_count g) (fun k ->
           ( f g.Tg.arc_src.(k),
             f g.Tg.arc_dst.(k),
             Int64.bits_of_float g.Tg.arc_weight.(k),
             g.Tg.arc_tokens.(k) )))
  in
  let whole = Tg.splice bm.Tg.graph d in
  if whole.Tg.nodes <> m.Tg.graph.Tg.nodes then
    Alcotest.failf "%s: %d spliced events, %d rebuilt" what whole.Tg.nodes m.Tg.graph.Tg.nodes;
  if arcs whole rename <> arcs m.Tg.graph Fun.id then
    Alcotest.failf "%s: the spliced arcs differ from the rebuilt graph's" what

(* The reference plans of b01-b13, checking every trial graph on the way:
   the warm λ-only oracle, and Howard from the mapped base policy or from
   a random policy, all give the cold λ bit for bit; Karp agrees on every
   16th trial; the cut solve keeps its contract; and a trial whose master
   is off the base analysis's critical cycle never lowers λ, the
   certificate by which [Mcr_select.plan] skips such trials.  The spliced
   trial ([Tg.trial] on the round's compiled graph) carries the rebuilt
   trial graph's arcs under the event renaming, and its λ, with and
   without a cutoff, is the cold λ.  Cut at λ, at the floats either side
   of it and at λ ± 1e-9, the spliced solve wins or loses (at most, or
   below, the cutoff) exactly as the cold λ does.  Every cycle such a cut
   solve reports through [Throughput.trial_cycle] is kept, as long as no
   master inserted since lies on it, and no later trial whose master
   avoids a kept cycle has a λ below that cycle's ratio: the certificate
   by which [Mcr_select.plan] skips trials.  Shared by the next seven
   tests. *)
let itc99_reference_plans =
  lazy
    (let module Ms = Ee_core.Mcr_select in
     let o = Ms.default_options in
     let policies = Ee_util.Prng.create 99 in
     let trials = ref 0 and off_cycle = ref 0 and stopped = ref 0 and spliced = ref 0 in
     let decided = ref 0 and certified = ref 0 in
     (* Kept cycles, as sorted distinct gates, with the largest ratio each
        was reported at; and the circuit and netlist they are cycles of. *)
     let kept = Hashtbl.create 64 and kept_on = ref None in
     let keep_cycles name pl_cur =
       (match !kept_on with
       | Some (name', _) when name' <> name -> Hashtbl.reset kept
       | Some (_, pl) when pl != pl_cur ->
           (* A new round: drop the cycles through the master that has
              gained a trigger. *)
           let stale gates =
             Array.exists (fun g -> Pl.ee pl_cur g <> None && Pl.ee pl g = None) gates
           in
           Hashtbl.filter_map_inplace (fun gates r -> if stale gates then None else Some r) kept
       | _ -> ());
       kept_on := Some (name, pl_cur)
     in
     let round =
       let last = ref None in
       fun a pl_cur ->
         match !last with
         | Some (a', r) when a' == a -> r
         | _ ->
             let b = Tg.compile ~gate_delay:o.Ms.gate_delay ~ee_overhead:o.Ms.ee_overhead pl_cur in
             let ctx = Mcr.context (Tg.mapping b).Tg.graph in
             let succ = (Option.get (Mcr.solve_in ctx)).Mcr.policy in
             let r = (b, ctx, succ, snd (Throughput.round pl_cur)) in
             last := Some (a, r);
             r
     in
     let on_trial name pl_cur a master req trial =
       incr trials;
       let what = Printf.sprintf "%s trial %d" name !trials in
       let m = Tg.of_pl ~gate_delay:o.Ms.gate_delay ~ee_overhead:o.Ms.ee_overhead trial in
       let g = m.Tg.graph in
       let cold = (Reference_plan.analyze o trial).Throughput.lambda in
       let b, ctx, succ, r = round a pl_cur in
       let d = Tg.trial b master req in
       check_spliced_arcs what pl_cur b master d m;
       if not (bits_equal cold (Throughput.trial_lambda r master req)) then
         Alcotest.failf "%s: spliced lambda %h, cold %h" what
           (Throughput.trial_lambda r master req) cold;
       List.iter
         (fun cutoff ->
           let x = Throughput.trial_lambda ~cutoff r master req in
           if cold <= cutoff then begin
             if not (bits_equal x cold) then
               Alcotest.failf "%s: cutoff %h: spliced lambda %h, cold %h" what cutoff x cold
           end
           else if not (cutoff < x && x <= cold) then
             Alcotest.failf "%s: cutoff %h below cold %h, spliced %h" what cutoff cold x)
         [ a.Throughput.lambda *. (1. -. 1e-3); cold; Float.pred cold ];
       keep_cycles name pl_cur;
       Hashtbl.iter
         (fun gates ratio ->
           if not (Array.mem master gates) then begin
             incr certified;
             if cold < ratio then
               Alcotest.failf "%s: a kept cycle avoids g%d, yet lambda %h < its ratio %h" what
                 master cold ratio
           end)
         kept;
       List.iter
         (fun cutoff ->
           let x = Throughput.trial_lambda ~cutoff r master req in
           incr decided;
           if (x <= cutoff) <> (cold <= cutoff) || (x < cutoff) <> (cold < cutoff) then
             Alcotest.failf "%s: cutoff %h: spliced %h decides otherwise than cold %h" what
               cutoff x cold;
           match Throughput.trial_cycle r master with
           | Some gates ->
               let gates = Array.of_list (List.sort_uniq compare gates) in
               let ratio = Option.value ~default:x (Hashtbl.find_opt kept gates) in
               Hashtbl.replace kept gates (Float.max ratio x)
           | None -> ())
         [ cold; Float.pred cold; Float.succ cold; cold -. 1e-9; cold +. 1e-9 ];
       if not (same (Ok (Some cold)) (Ok (Mcr.splice_lambda ~hint:succ ctx d)))
       then Alcotest.failf "%s: splice_lambda differs from the cold lambda" what;
       incr spliced;
       let hint = Throughput.hint a m in
       check_hints ~karp:(!trials mod 16 = 0) what g
         [ ("mapped base", hint); ("random", random_policy policies g) ];
       stopped := !stopped + check_cutoffs what ~hint g;
       if not (bits_equal cold (Ms.lambda ~warm:a o trial)) then
         Alcotest.failf "%s: Mcr_select.lambda differs from the full analysis" what;
       if not (List.mem master a.Throughput.critical_gates) then begin
         incr off_cycle;
         if cold < a.Throughput.lambda then
           Alcotest.failf "%s: master g%d is off the critical cycle, yet lambda %h < %h" what
             master cold a.Throughput.lambda
       end
     in
     let plans =
       List.map
         (fun (name, pl) -> (name, pl, Reference_plan.plan ~on_trial:(on_trial name) o pl))
         (itc99_netlists ())
     in
     {
       plans;
       trials = !trials;
       off_cycle = !off_cycle;
       stopped = !stopped;
       spliced = !spliced;
       decided = !decided;
       certified = !certified;
     })

let test_warm_start_trials () =
  let { trials; _ } = Lazy.force itc99_reference_plans in
  Alcotest.(check bool) (Printf.sprintf "%d trials checked" trials) true (trials > 5000)

let test_spliced_trials () =
  let { trials; spliced; _ } = Lazy.force itc99_reference_plans in
  Alcotest.(check int) "every trial spliced" trials spliced

let test_certificate_sound () =
  let { trials; off_cycle; _ } = Lazy.force itc99_reference_plans in
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d trials off the critical cycle" off_cycle trials)
    true
    (off_cycle > trials / 2)

let test_decided_trials () =
  let { trials; decided; _ } = Lazy.force itc99_reference_plans in
  Alcotest.(check int) "five cut solves per trial" (5 * trials) decided

let test_cycle_certificates () =
  let { trials; certified; _ } = Lazy.force itc99_reference_plans in
  Alcotest.(check bool)
    (Printf.sprintf "%d kept-cycle checks over %d trials" certified trials)
    true (certified > trials)

let test_cutoff_trials () =
  let { stopped; _ } = Lazy.force itc99_reference_plans in
  Alcotest.(check bool) (Printf.sprintf "%d cut solves stopped early" stopped) true (stopped > 0)

(* [Mcr_select.plan] under [o] chooses the reference's pairs, and the warm
   λ-only oracle reproduces each of the reference's per-round λ: bit for
   bit, or with [close] within 1e-9 relative (where weights do not sum
   exactly, a warm solve may sum the critical cycle from another node). *)
let check_matches_reference ?(close = false) o (name, pl, (reference, rounds)) =
  let module Ms = Ee_core.Mcr_select in
  let module Synth = Ee_core.Synth in
  let key (c : Synth.gate_choice) =
    (c.Synth.master, c.Synth.chosen.Ee_core.Trigger.subset, Int64.bits_of_float c.Synth.cost)
  in
  let plan = Ms.plan ~options:o ~memo:(Ee_core.Trigger.Memo.create ()) pl in
  if List.map key plan <> List.map key reference then
    Alcotest.failf "%s: plan differs from the reference planner" name;
  ignore
    (List.fold_left
       (fun (k, pl_cur) ((c : Synth.gate_choice), lambda_ref) ->
         let trial =
           Pl.with_ee pl_cur [ (c.Synth.master, Ee_core.Synth.request c.Synth.chosen c.Synth.cost) ]
         in
         let lambda = Ms.lambda ~warm:(Ms.analyze o pl_cur) o trial in
         if
           not
             (if close then Float.abs (lambda -. lambda_ref) <= 1e-9 *. lambda_ref
              else bits_equal lambda lambda_ref)
         then
           Alcotest.failf "%s round %d: lambda %h, reference %h" name k lambda lambda_ref;
         (k + 1, trial))
       (1, pl) rounds)

let test_plan_matches_reference () =
  let o = Ee_core.Mcr_select.default_options in
  let { plans = itc99; _ } = Lazy.force itc99_reference_plans in
  let families =
    List.map (fun (name, pl) -> (name, pl, Reference_plan.plan o pl)) (family_netlists ())
  in
  List.iter (check_matches_reference o) (itc99 @ families)

(* The certificate and the cutoff depend on the gain threshold.  At 0 a
   trial that only ties λ can win, so the certificate must never fire
   (capped at three pairs: with ties accepted the cold reference runs for
   a minute); at 5 % it fires on more trials; a one-pair budget ends the
   plan after its first round. *)
let test_plan_threshold_edges () =
  let module Ms = Ee_core.Mcr_select in
  let o = Ms.default_options in
  List.iter
    (fun (tag, o) ->
      List.iter
        (fun (name, pl) ->
          check_matches_reference o (name ^ " " ^ tag, pl, Reference_plan.plan o pl))
        (itc99_netlists ()))
    [
      ("min gain 0, 3 pairs", { o with Ms.min_gain_percent = 0.; max_pairs = Some 3 });
      ("min gain 0.1", { o with Ms.min_gain_percent = 0.1 });
      ("min gain 5", { o with Ms.min_gain_percent = 5. });
      ("max pairs 1", { o with Ms.max_pairs = Some 1 });
    ]

(* Under a timing whose weights are not dyadic (tenths and hundredths)
   no cycle sums exactly, so every cut solve keeps its margin; the plan is
   still the reference's. *)
let test_plan_non_dyadic () =
  let module Ms = Ee_core.Mcr_select in
  let o = { Ms.default_options with Ms.gate_delay = 0.1; ee_overhead = 0.03 } in
  List.iter
    (fun (name, pl) ->
      check_matches_reference ~close:true o (name ^ " non-dyadic", pl, Reference_plan.plan o pl))
    (itc99_netlists ())

let search_reference =
  (* Search_select.run with default options, as it reported before trials
     became λ-only and warm-started: lambda_mcr, lambda, trials, groups. *)
  [
    ("b01", 0x1.4p+2, 0x1.4p+2, 7, 4);
    ("b02", 0x1.4p+1, 0x1.4p+1, 0, 0);
    ("b03", 0x1.3p+3, 0x1.2cp+3, 8, 3);
    ("b04", 0x1.ep+3, 0x1.d8p+3, 8, 4);
    ("b05", 0x1.8p+3, 0x1.8p+3, 10, 4);
    ("b06", 0x1.8p+1, 0x1.8p+1, 1, 0);
    ("b07", 0x1.34p+3, 0x1.34p+3, 3, 3);
    ("b08", 0x1.ep+1, 0x1.ep+1, 0, 0);
    ("b09", 0x1.1p+2, 0x1.1p+2, 0, 0);
    ("b10", 0x1.cp+1, 0x1.cp+1, 1, 0);
    ("b11", 0x1.6p+3, 0x1.6p+3, 0, 0);
    ("b12", 0x1.9p+2, 0x1.9p+2, 9, 4);
    ("b13", 0x1.4p+2, 0x1.4p+2, 8, 1);
    ("adder4", 0x1p+1, 0x1p+1, 0, 0);
    ("adder8", 0x1p+1, 0x1p+1, 0, 0);
    ("compare4", 0x1.2p+1, 0x1.2p+1, 0, 0);
    ("compare8", 0x1.4666666666666p+1, 0x1.4666666666666p+1, 0, 0);
    ("parity4", 0x1p+0, 0x1p+0, 0, 0);
    ("parity8", 0x1p+1, 0x1p+1, 0, 0);
    ("crc84", 0x1p+1, 0x1p+1, 0, 0);
    ("crc88", 0x1.4p+1, 0x1.4p+1, 0, 0);
    ("priority4", 0x1p+0, 0x1p+0, 2, 0);
    ("priority8", 0x1p+1, 0x1p+1, 8, 0);
    ("wide-and4", 0x1p+0, 0x1p+0, 0, 0);
    ("wide-and8", 0x1p+1, 0x1p+1, 0, 0);
    ("increment4", 0x1p+1, 0x1p+1, 0, 0);
    ("increment8", 0x1p+1, 0x1p+1, 0, 0);
  ]

let test_search_matches_reference () =
  let module Ss = Ee_search.Search_select in
  let netlists = plan_netlists () in
  Alcotest.(check int) "circuits" (List.length search_reference) (List.length netlists);
  List.iter2
    (fun (name, pl) (name', lambda_mcr, lambda, trials, groups) ->
      Alcotest.(check string) "circuit" name' name;
      let _, r = Ss.run pl in
      if
        not
          (bits_equal r.Ss.lambda_mcr lambda_mcr
          && bits_equal r.Ss.lambda lambda
          && r.Ss.trials = trials
          && List.length r.Ss.shared_groups = groups)
      then
        Alcotest.failf "%s: lambda_mcr %h lambda %h trials %d groups %d" name r.Ss.lambda_mcr
          r.Ss.lambda r.Ss.trials (List.length r.Ss.shared_groups))
    netlists search_reference

(* The first zero-slack gate of [pl]'s analysis [a] with a trigger
   candidate, and that candidate. *)
let first_trial pl (a : Throughput.analysis) =
  let found = ref None in
  Array.iteri
    (fun i g ->
      match g.Pl.kind with
      | Pl.Gate func when !found = None && a.Throughput.gate_slack.(i) <= 1e-7 *. a.Throughput.lambda
        -> (
          match Ee_core.Trigger.candidates func with c :: _ -> found := Some (i, c) | [] -> ())
      | _ -> ())
    (Pl.gates pl);
  Option.get !found

(* Words [f ()] allocates, minor and directly major. *)
let allocated f =
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  ignore (Sys.opaque_identity (f ()));
  let minor = Gc.minor_words () -. minor0 and _, promoted1, major1 = Gc.counters () in
  (minor, minor +. (major1 -. major0 -. (promoted1 -. promoted0)))

(* One λ-only trial allocates a few words per event and arc: no per-node
   lists, no slack pass.  The cold full analysis it replaced allocated
   about 150 minor words per event and arc here. *)
let test_trial_allocation () =
  let module Ms = Ee_core.Mcr_select in
  let pl = Pl.of_netlist (Ee_rtl.Techmap.run_rtl (Ee_bench_circuits.Itc99.b12 ())) in
  let o = Ms.default_options in
  let a = Ms.analyze o pl in
  let master, choice = first_trial pl a in
  let trial () = Pl.with_ee pl [ (master, Ee_core.Synth.request choice 0.) ] in
  let g = (Tg.of_pl (trial ())).Tg.graph in
  let size = g.Tg.nodes + Tg.arc_count g in
  ignore (Ms.lambda ~warm:a o (trial ()));
  let minor, words = allocated (fun () -> Ms.lambda ~warm:a o (trial ())) in
  if minor > float_of_int (24 * size) then
    Alcotest.failf "one trial allocated %.0f minor words (bound %d = 24 x %d events and arcs)"
      minor (24 * size) size;
  if words > float_of_int (32 * size) then
    Alcotest.failf "one trial allocated %.0f words in all (bound %d)" words (32 * size)

(* A spliced trial allocates for its delta alone, however large the
   netlist: the round's context keeps its rows and Howard's arrays from
   trial to trial. *)
let test_spliced_allocation () =
  List.iter
    (fun (id, build) ->
      let pl = Pl.of_netlist (Ee_rtl.Techmap.run_rtl (build ())) in
      let a, r = Throughput.round pl in
      let master, choice = first_trial pl a in
      let req = Ee_core.Synth.request choice 0. in
      ignore (Throughput.trial_lambda r master req);
      let _, words = allocated (fun () -> Throughput.trial_lambda r master req) in
      if words > 1024. then
        Alcotest.failf "%s: one spliced trial allocated %.0f words (bound 1024; %d events)" id
          words a.Throughput.events)
    Ee_bench_circuits.Itc99.[ ("b12", b12); ("b14", b14); ("b15", b15) ]

let suite =
  ( "perf",
    [
      Alcotest.test_case "hand graphs" `Quick test_hand_graphs;
      Alcotest.test_case "token-free cycles rejected" `Quick test_not_live_detected;
      Alcotest.test_case "slack and potentials" `Quick test_slack_and_potentials;
      Alcotest.test_case "Karp = Howard on 200 random live graphs" `Quick
        test_karp_equals_howard_random;
      Alcotest.test_case "ring analytic = canopy = simulated" `Slow
        test_ring_matches_canopy;
      Alcotest.test_case "ITC99 Karp = Howard" `Slow test_itc99_karp_agrees;
      Alcotest.test_case "ITC99 analytic within 5% of stream sim" `Slow
        test_itc99_analysis_matches_sim;
      Alcotest.test_case "EE modes bracket the simulator" `Slow
        test_itc99_ee_modes_bracket_sim;
      Alcotest.test_case "jittered delay schedules agree" `Slow
        test_jittered_delays_agree;
      Alcotest.test_case "critical cycle names gates" `Quick
        test_critical_cycle_names_gates;
      Alcotest.test_case "MCR-driven selection works" `Slow test_mcr_selection;
      Alcotest.test_case "warm start exact on 200 random graphs" `Quick test_warm_start_random;
      Alcotest.test_case "cutoff contract on 200 random graphs" `Quick test_cutoff_random;
      Alcotest.test_case "hint ignores dead and out-of-range nodes" `Quick
        test_hint_ignores_bad_nodes;
      Alcotest.test_case "warm start exact on every b01-b13 trial" `Slow test_warm_start_trials;
      Alcotest.test_case "cutoff contract on every b01-b13 trial" `Slow test_cutoff_trials;
      Alcotest.test_case "off-cycle trials never lower lambda" `Slow test_certificate_sound;
      Alcotest.test_case "MCR plan matches the reference planner" `Slow
        test_plan_matches_reference;
      Alcotest.test_case "MCR plan matches the reference at threshold edges" `Slow
        test_plan_threshold_edges;
      Alcotest.test_case "search reports unchanged" `Slow test_search_matches_reference;
      Alcotest.test_case "one trial's allocation bounded" `Quick test_trial_allocation;
      Alcotest.test_case "critical cycle without slacks" `Slow test_critical_cycle_alone;
      Alcotest.test_case "spliced trial = rebuilt trial on random deltas" `Quick
        test_splice_random;
      Alcotest.test_case "spliced trial closing a token-free cycle" `Quick test_splice_not_live;
      Alcotest.test_case "spliced arcs and lambda on every b01-b13 trial" `Slow
        test_spliced_trials;
      Alcotest.test_case "one spliced trial's allocation bounded" `Quick test_spliced_allocation;
      Alcotest.test_case "cut trials decide as the cold lambda on every b01-b13 trial" `Slow
        test_decided_trials;
      Alcotest.test_case "kept cycles bound every later b01-b13 trial" `Slow
        test_cycle_certificates;
      Alcotest.test_case "MCR plan matches the reference under non-dyadic timing" `Slow
        test_plan_non_dyadic;
      Alcotest.test_case "exact sums stop at the deciding cycle" `Quick test_exact_stop;
      Alcotest.test_case "a spliced trial sums exactly as its own weights do" `Quick
        test_splice_exactness;
    ] )
