(* mcr_plan: ITC99 b01-b13 through [Engine.run] with the Search selection
   (greedy MCR floor plus shared triggers) at 25 vectors, then the static
   throughput analysis of the no-EE and EE netlists.  Trial re-analysis in
   the planners carries the host time; the simulator does under 1 % of the
   work.  b14 and b15 are left out: their MCR planning alone takes from
   half a minute to minutes. *)

module Engine = Ee_engine.Engine
module Itc99 = Ee_bench_circuits.Itc99
module Pipeline = Ee_report.Pipeline
module Tables = Ee_report.Tables
module Throughput = Ee_perf.Throughput
module Tg = Ee_perf.Timed_graph
module Ss = Ee_sim.Stream_sim
module Search_select = Ee_search.Search_select
module Memo = Ee_core.Trigger.Memo

let ids =
  [ "b01"; "b02"; "b03"; "b04"; "b05"; "b06"; "b07"; "b08"; "b09"; "b10"; "b11"; "b12"; "b13" ]

let stream_waves = 240
let bracket_tolerance = 0.05

type outcome = {
  row : Tables.row;
  artifact : Pipeline.artifact;
  no_ee : Throughput.analysis;
  ee : Throughput.analysis;
}

let analyze spec (a : Pipeline.artifact) =
  let gate_delay = spec.Engine.gate_delay and ee_overhead = spec.Engine.ee_overhead in
  ( Throughput.analyze ~gate_delay ~ee_overhead a.Pipeline.pl,
    Throughput.analyze ~gate_delay ~ee_overhead a.Pipeline.pl_ee )

let plan_op spec b =
  let r = Engine.run ~spec b in
  let no_ee, ee = analyze spec r.Engine.artifact in
  { row = r.Engine.row; artifact = r.Engine.artifact; no_ee; ee }

(* Counters of one traced pass. *)
type counts = {
  mutable trials : int;
  mutable groups : int;
  mutable events : int;
  mutable ee_gates : int;
  mutable memo_hit_ratio : float;
}

(* [Engine.run] with spans: the same stages, with the Search plan captured
   so its counters can be read. *)
let traced_op spec c b =
  let report = ref None in
  let plan pl =
    let pl', r = Search_select.run ~options:(Engine.search_options spec) pl in
    report := Some r;
    (pl', r.Search_select.synth)
  in
  let a = Pipeline.build_staged ~plan ~instrument:Table3.instrument b in
  let row, _ = Table3.spanned_row spec a in
  let no_ee, ee = Span.with_ "throughput" (fun () -> analyze spec a) in
  let r = Option.get !report in
  c.trials <- c.trials + r.Search_select.trials;
  c.groups <- c.groups + List.length r.Search_select.shared_groups;
  c.events <- c.events + no_ee.Throughput.events + ee.Throughput.events;
  c.ee_gates <- c.ee_gates + a.Pipeline.synth_report.Ee_core.Synth.ee_gates;
  { row; artifact = a; no_ee; ee }

let oracle spec tally (o : outcome) =
  let id = o.artifact.Pipeline.id in
  let check what ok =
    Metrics.record tally ok;
    if not ok then Harness.fail "mcr_plan: %s: %s" id what
  in
  let gate_delay = spec.Engine.gate_delay and ee_overhead = spec.Engine.ee_overhead in
  let pl = o.artifact.Pipeline.pl and pl_ee = o.artifact.Pipeline.pl_ee in
  let karp = Ee_perf.Mcr.karp (Tg.of_pl ~gate_delay ~ee_overhead pl).Tg.graph in
  check "Karp equals Howard on the no-EE graph"
    (match karp with
    | Some k -> Float.abs (k -. o.no_ee.Throughput.lambda) <= 1e-6
    | None -> false);
  check "final period not above the no-EE period"
    (o.ee.Throughput.lambda <= o.no_ee.Throughput.lambda +. 1e-9);
  let mode m = (Throughput.analyze ~gate_delay ~ee_overhead ~mode:m pl_ee).Throughput.lambda in
  let config = { Ss.gate_delay; ee_overhead } in
  let sim =
    Span.with_ "stream" (fun () ->
        (Ss.run_random ~config pl_ee ~waves:stream_waves ~seed:spec.Engine.seed).Ss.cycle_time)
  in
  check "streamed period inside the eager/guarded bracket"
    (sim >= (mode Tg.Eager *. (1. -. bracket_tolerance)) -. 1e-9
    && sim <= (mode Tg.Guarded *. (1. +. bracket_tolerance)) +. 1e-9)

let line (o : outcome) =
  Printf.sprintf "lambda %s no_ee=%h final=%h ee_gates=%d delay_no_ee=%h delay_ee=%h"
    o.artifact.Pipeline.id o.no_ee.Throughput.lambda o.ee.Throughput.lambda o.row.Tables.ee_gates
    o.row.Tables.delay_no_ee o.row.Tables.delay_ee

let run (cfg : Harness.config) =
  let spec =
    Engine.default_spec
    |> Engine.with_selection Engine.Search
    |> Engine.with_vectors 25
    |> Engine.with_seed cfg.Harness.seed
  in
  let tally = Metrics.tally () in
  let benchmarks, setup =
    Harness.setup ~repeats:31 (fun () -> Table3.elaborate_all (List.map Itc99.find ids))
  in
  let last = ref [] and reference = ref None and op_ms = ref [] and ops = ref 0 in
  let finish outcomes =
    Harness.same_as_first tally "mcr_plan" reference (List.map line outcomes);
    last := outcomes
  in
  (* Every pass starts from an empty trigger memo, so all passes do the
     same work. *)
  let pass () =
    Memo.clear (Memo.domain_default ());
    finish
      (List.map
         (fun (b : Itc99.benchmark) ->
           let o, dt = Harness.time (fun () -> plan_op spec b) in
           Metrics.record tally true;
           incr ops;
           op_ms := (b.Itc99.id, dt *. 1000.) :: !op_ms;
           o)
         benchmarks)
  in
  let c = ref None in
  let traced_pass () =
    let m = Memo.domain_default () in
    Memo.clear m;
    let k = { trials = 0; groups = 0; events = 0; ee_gates = 0; memo_hit_ratio = 0. } in
    finish (List.map (traced_op spec k) benchmarks);
    let lookups = Memo.hits m + Memo.misses m in
    if lookups > 0 then k.memo_hit_ratio <- float_of_int (Memo.hits m) /. float_of_int lookups;
    c := Some k
  in
  let passes, per_layer =
    if not cfg.Harness.trace then
      (Harness.measure ~min_passes:2 ~seconds:cfg.Harness.seconds pass, [])
    else begin
      let n, overhead =
        Harness.traced_measure cfg (fun () -> if !Span.active then traced_pass () else pass ())
      in
      let per name = fst (Span.total name) /. float_of_int n in
      let c = Option.get !c in
      (* The MCR floor that Search builds on and Search itself, timed back
         to back on each circuit in one more pass, so that drift of host
         speed cancels in their difference; each from an empty memo of its
         own.  Then the oracle's streamed periods. *)
      Span.active := true;
      let mcr_memo = Memo.create () in
      Memo.clear (Memo.domain_default ());
      List.iter
        (fun o ->
          let pl = o.artifact.Pipeline.pl in
          ignore
            (Span.with_ "mcr" (fun () ->
                 Ee_core.Mcr_select.run ~options:(Engine.mcr_options spec) ~memo:mcr_memo pl));
          ignore
            (Span.with_ "search" (fun () ->
                 Search_select.run ~options:(Engine.search_options spec) pl)))
        !last;
      List.iter (oracle spec tally) !last;
      Span.active := false;
      let mcr_ms, mcr_mwords = Span.total "mcr" in
      ( [||],
        Metrics.
          [
            overhead;
            metric "rtl.ms" "ms" (per "rtl");
            metric "map.ms" "ms" (per "map");
            metric "plmap.ms" "ms" (per "plmap");
            metric "plan.ms" "ms" (per "plan");
            metric "plan.mwords" "Mwords" (snd (Span.total "plan") /. float_of_int n);
            metric "plan.ee_gates" "count" (float_of_int c.ee_gates);
            metric "plan.memo_hit_ratio" "fraction" c.memo_hit_ratio;
            metric "mcr.ms" "ms" mcr_ms;
            metric "mcr.mwords" "Mwords" mcr_mwords;
            metric "search.ms" "ms" (fst (Span.total "search") -. mcr_ms);
            metric "search.trials" "count" (float_of_int c.trials);
            metric "search.shared_groups" "count" (float_of_int c.groups);
            metric "throughput.ms" "ms" (per "throughput");
            metric "throughput.events" "count" (float_of_int c.events);
            metric "sim.ms" "ms" (per "sim");
            metric "stream.ms" "ms" (fst (Span.total "stream"));
          ] )
    end
  in
  if not cfg.Harness.trace then List.iter (oracle spec tally) !last;
  let ratios = List.map (fun o -> o.no_ee.Throughput.lambda /. o.ee.Throughput.lambda) !last in
  let gain = (Ee_util.Stats.geomean (Array.of_list ratios) -. 1.) *. 100. in
  Printf.printf "mcr_plan: geometric-mean lambda_no_ee/lambda_final gain %.4f %% over %d circuits\n"
    gain (List.length ratios);
  let end_to_end =
    if cfg.Harness.trace then []
    else
      Harness.timing_metrics ~setup ~passes ~ops:!ops ~op_ms:(Harness.circuit_means !op_ms)
        ~tail_p:90. ~rss:(Harness.self_rss ())
      @ [ Metrics.metric "result_pct" "%" gain ]
  in
  { Harness.tally; end_to_end; per_layer; digest = Option.get !reference }
