(* table3_sim: the paper's Table 3 protocol on the 29-circuit engine set
   (15 ITC99 circuits and 7 circuit families at widths 20 and 28), Eq. 1
   selection, 400 random vectors, one domain.  The timed simulator carries
   about four fifths of the host time; MCR planning, the frontend, fault
   injection and serving do no work here. *)

module Engine = Ee_engine.Engine
module Itc99 = Ee_bench_circuits.Itc99
module Families = Ee_bench_circuits.Families
module Pipeline = Ee_report.Pipeline
module Tables = Ee_report.Tables
module Sim = Ee_sim.Sim
module Pl = Ee_phased.Pl
module Netlist = Ee_netlist.Netlist
module Memo = Ee_core.Trigger.Memo

let vectors = 400
let replayed_waves = 32

let circuits () =
  let synthetic (f : Families.family) width =
    {
      Itc99.id = Printf.sprintf "%s%d" f.Families.name width;
      description = Printf.sprintf "%s, width %d" f.Families.description width;
      build = (fun () -> f.Families.build width);
    }
  in
  Itc99.all @ List.concat_map (fun f -> [ synthetic f 20; synthetic f 28 ]) Families.all

(* Set-up elaborates and maps every circuit once, which checks the input
   set before anything is timed. *)
let elaborate_all benchmarks =
  List.iter
    (fun (b : Itc99.benchmark) ->
      ignore (Pl.of_netlist (Ee_rtl.Techmap.run_rtl (b.Itc99.build ()))))
    benchmarks;
  benchmarks

let layer_of_stage = function
  | "bit-blast" -> "map"
  | "pl-map" -> "plmap"
  | "ee-plan" -> "plan"
  | s -> s

let instrument = { Pipeline.wrap = (fun stage f -> Span.with_ (layer_of_stage stage) f) }

(* Counters of one traced pass. *)
type counts = {
  mutable luts : int;
  mutable pl_gates : int;
  mutable ee_gates : int;
  mutable waves : int;
  mutable gate_waves : float;  (** Gates times waves: the simulated events. *)
  mutable early : float list;  (** Early-fire rate of each circuit with EE. *)
  mutable memo_hit_ratio : float;
}

let counts () =
  {
    luts = 0;
    pl_gates = 0;
    ee_gates = 0;
    waves = 0;
    gate_waves = 0.;
    early = [];
    memo_hit_ratio = 0.;
  }

(* [Tables.row_of_artifact] with both simulations in a [sim] span and the
   critical-cycle analysis in a [throughput] span; also returns the EE
   simulation report. *)
let spanned_row spec (a : Pipeline.artifact) =
  let config = Engine.sim_config spec in
  let vectors = spec.Engine.vectors and seed = spec.Engine.seed in
  let pl = a.Pipeline.pl and pl_ee = a.Pipeline.pl_ee in
  let base, ee =
    Span.with_ "sim" (fun () ->
        (Sim.run_random ~config pl ~vectors ~seed, Sim.run_random ~config pl_ee ~vectors ~seed))
  in
  let crit =
    Span.with_ "throughput" (fun () ->
        Ee_perf.Throughput.analyze ~gate_delay:config.Sim.gate_delay
          ~ee_overhead:config.Sim.ee_overhead pl_ee)
  in
  let rep = a.Pipeline.synth_report in
  let before = base.Sim.avg_settle_time and after = ee.Sim.avg_settle_time in
  ( {
      Tables.id = a.Pipeline.id;
      description = a.Pipeline.description;
      pl_gates = rep.Ee_core.Synth.pl_gates;
      ee_gates = rep.Ee_core.Synth.ee_gates;
      delay_no_ee = before;
      delay_ee = after;
      delay_diff = before -. after;
      area_increase = rep.Ee_core.Synth.area_increase_percent;
      delay_decrease = Ee_util.Stats.percent_change ~before ~after;
      critical_cycle = crit.Ee_perf.Throughput.critical_string;
    },
    ee )

(* [Engine.run] with a span around each layer: the same stages in the same
   order, so its rows must equal the untraced suite's. *)
let traced_row spec c memo (b : Itc99.benchmark) =
  let a = Pipeline.build_staged ~options:(Engine.synth_options spec) ~memo ~instrument b in
  let row, ee = spanned_row spec a in
  let pl = a.Pipeline.pl and pl_ee = a.Pipeline.pl_ee in
  c.luts <- c.luts + Netlist.lut_count a.Pipeline.netlist;
  c.pl_gates <- c.pl_gates + Pl.pl_gate_count pl;
  c.ee_gates <- c.ee_gates + row.Tables.ee_gates;
  c.waves <- c.waves + (2 * vectors);
  let gates = Array.length (Pl.gates pl) + Array.length (Pl.gates pl_ee) in
  c.gate_waves <- c.gate_waves +. float_of_int (gates * vectors);
  if Pl.ee_gate_count pl_ee > 0 then c.early <- ee.Sim.early_fire_rate :: c.early;
  row

let row_line (r : Tables.row) =
  Printf.sprintf "row %-10s pl=%d ee=%d delay_no_ee=%h delay_ee=%h area=%h crit=%s" r.Tables.id
    r.Tables.pl_gates r.Tables.ee_gates r.Tables.delay_no_ee r.Tables.delay_ee
    r.Tables.area_increase r.Tables.critical_cycle

(* The independent oracle: replay the first waves of every circuit's vector
   stream through a fresh simulator and the synchronous netlist model. *)
let replay_agrees spec (a : Pipeline.artifact) pl =
  let rng = Ee_util.Prng.create spec.Engine.seed in
  let width = Array.length (Pl.source_ids pl) in
  let sim = Sim.create ~config:(Engine.sim_config spec) pl in
  let rec go k st =
    k = replayed_waves
    ||
    let vec = Ee_util.Prng.bool_vector rng width in
    let w = Sim.apply sim vec in
    let outs, st' = Netlist.step a.Pipeline.netlist st vec in
    w.Sim.outputs = outs && go (k + 1) st'
  in
  go 0 (Netlist.initial_state a.Pipeline.netlist)

let run (cfg : Harness.config) =
  let spec =
    Engine.default_spec |> Engine.with_vectors vectors |> Engine.with_seed cfg.Harness.seed
  in
  let tally = Metrics.tally () in
  let benchmarks, setup = Harness.setup ~repeats:31 (fun () -> elaborate_all (circuits ())) in
  let reference = ref None and last = ref [] and op_ms = ref [] and ops = ref 0 in
  let pass () =
    let trace = Ee_engine.Trace.create () in
    let s = Engine.run_suite ~spec ~trace ~domains:1 ~benchmarks () in
    List.iter
      (function
        | Ok _ -> Metrics.record tally true
        | Error f ->
            Metrics.record tally false;
            Harness.fail "table3_sim: %s" (Engine.failure_to_string f))
      s.Engine.results;
    ops := !ops + List.length (Engine.ok_results s);
    (* A row's latency is the sum of its stage spans. *)
    let per_row = Hashtbl.create 32 in
    List.iter
      (fun (sp : Ee_engine.Trace.span) ->
        let id = sp.Ee_engine.Trace.bench in
        let prev = Option.value ~default:0. (Hashtbl.find_opt per_row id) in
        Hashtbl.replace per_row id (prev +. sp.Ee_engine.Trace.dur_us))
      (Ee_engine.Trace.spans trace);
    Hashtbl.iter (fun id us -> op_ms := (id, us /. 1000.) :: !op_ms) per_row;
    last := Engine.ok_results s;
    Harness.same_as_first tally "table3_sim" reference s.Engine.table3
  in
  let c = ref (counts ()) in
  let traced_pass () =
    let memo = Memo.create () in
    let k = counts () in
    let rows = List.map (traced_row spec k memo) benchmarks in
    let lookups = Memo.hits memo + Memo.misses memo in
    if lookups > 0 then k.memo_hit_ratio <- float_of_int (Memo.hits memo) /. float_of_int lookups;
    c := k;
    let same = Option.map (fun (r : Tables.table3) -> r.Tables.rows) !reference = Some rows in
    Metrics.record tally same;
    if not same then Harness.fail "table3_sim: traced rows differ from the untraced suite"
  in
  let passes, per_layer =
    if not cfg.Harness.trace then (Harness.measure ~seconds:cfg.Harness.seconds pass, [])
    else begin
      (* Untraced passes come first, so the reference rows exist. *)
      let n, overhead =
        Harness.traced_measure cfg (fun () -> if !Span.active then traced_pass () else pass ())
      in
      let per name = fst (Span.total name) /. float_of_int n in
      let mw name = snd (Span.total name) /. float_of_int n in
      let c = !c in
      ( [||],
        Metrics.
          [
            overhead;
            metric "rtl.ms" "ms" (per "rtl");
            metric "map.ms" "ms" (per "map");
            metric "map.mwords" "Mwords" (mw "map");
            metric "map.luts" "count" (float_of_int c.luts);
            metric "plmap.ms" "ms" (per "plmap");
            metric "plmap.gates" "count" (float_of_int c.pl_gates);
            metric "plan.ms" "ms" (per "plan");
            metric "plan.mwords" "Mwords" (mw "plan");
            metric "plan.ee_gates" "count" (float_of_int c.ee_gates);
            metric "plan.memo_hit_ratio" "fraction" c.memo_hit_ratio;
            metric "sim.ms" "ms" (per "sim");
            metric "sim.mwords" "Mwords" (mw "sim");
            metric "sim.waves" "count" (float_of_int c.waves);
            metric "sim.ns_per_gate_wave" "ns" (per "sim" *. 1e6 /. c.gate_waves);
            metric "sim.early_fire_rate" "fraction" (Ee_util.Stats.mean (Array.of_list c.early));
            metric "throughput.ms" "ms" (per "throughput");
          ] )
    end
  in
  (* Oracle: sampled waves of both netlists of every circuit. *)
  List.iter
    (fun (r : Engine.result) ->
      let a = r.Engine.artifact in
      List.iter
        (fun (tag, pl) ->
          let ok = replay_agrees spec a pl in
          Metrics.record tally ok;
          if not ok then
            Harness.fail "table3_sim: %s %s simulator disagrees with Netlist.step" a.Pipeline.id
              tag)
        [ ("no-EE", a.Pipeline.pl); ("EE", a.Pipeline.pl_ee) ])
    !last;
  let t3 = Option.get !reference in
  Printf.printf "table3: avg delay decrease %.4f %%, avg area increase %.4f %% over %d rows\n"
    t3.Tables.avg_delay_decrease t3.Tables.avg_area_increase (List.length t3.Tables.rows);
  let end_to_end =
    if cfg.Harness.trace then []
    else
      Harness.timing_metrics ~setup ~passes ~ops:!ops ~op_ms:(Harness.circuit_means !op_ms)
        ~tail_p:90. ~rss:(Harness.self_rss ())
      @ [ Metrics.metric "result_pct" "%" t3.Tables.avg_delay_decrease ]
  in
  { Harness.tally; end_to_end; per_layer; digest = List.map row_line t3.Tables.rows }
