module Table = Ee_util.Table
module Stats = Ee_util.Stats
module Tg = Ee_perf.Timed_graph
module Mcr = Ee_perf.Mcr
module Throughput = Ee_perf.Throughput
module Ss = Ee_sim.Stream_sim
module Itc99 = Ee_bench_circuits.Itc99

type bench_row = {
  id : string;
  description : string;
  lambda_no_ee : float;
  karp_gap : float;
  sim_no_ee : float;
  err_no_ee : float;
  lambda_eager : float;
  lambda_expected : float;
  lambda_guarded : float;
  sim_ee : float;
  err_ee : float;
  analytic_gain : float;
  critical_cycle : string;
  tightest : (string * float) list;
}

let rel_err ~reference x = Float.abs (x -. reference) /. reference *. 100.

let analyze_bench ?(config = Ss.default_config) ?(waves = 240) ?(seed = 11)
    (a : Pipeline.artifact) =
  let gate_delay = config.Ss.gate_delay and ee_overhead = config.Ss.ee_overhead in
  let pl = a.Pipeline.pl and pl_ee = a.Pipeline.pl_ee in
  let base = Throughput.analyze ~gate_delay ~ee_overhead pl in
  let karp_gap =
    match Mcr.karp (Tg.of_pl ~gate_delay ~ee_overhead pl).Tg.graph with
    | Some karp -> Float.abs (karp -. base.Throughput.lambda)
    | None -> Float.nan
  in
  let mode_lambda mode =
    (Throughput.analyze ~gate_delay ~ee_overhead ~mode pl_ee).Throughput.lambda
  in
  let expected = Throughput.analyze ~gate_delay ~ee_overhead pl_ee in
  let sim_no_ee = (Ss.run_random ~config pl ~waves ~seed).Ss.cycle_time in
  let sim_ee = (Ss.run_random ~config pl_ee ~waves ~seed).Ss.cycle_time in
  {
    id = a.Pipeline.id;
    description = a.Pipeline.description;
    lambda_no_ee = base.Throughput.lambda;
    karp_gap;
    sim_no_ee;
    err_no_ee = rel_err ~reference:base.Throughput.lambda sim_no_ee;
    lambda_eager = mode_lambda Tg.Eager;
    lambda_expected = expected.Throughput.lambda;
    lambda_guarded = mode_lambda Tg.Guarded;
    sim_ee;
    err_ee = rel_err ~reference:expected.Throughput.lambda sim_ee;
    analytic_gain = Throughput.predicted_gain base expected;
    critical_cycle = base.Throughput.critical_string;
    tightest =
      List.map
        (fun (g, s) -> (Throughput.gate_name pl g, s))
        (Throughput.bottlenecks base 5);
  }

type selection_row = {
  sel_id : string;
  eq1_gates : int;
  mcr_gates : int;
  eq1_lambda : float;
  mcr_lambda : float;
  eq1_gain : float;
  mcr_gain : float;
  overlap_percent : float;
}

let compare_selection ?mcr_options ?(config = Ss.default_config) ?(waves = 200)
    ?(seed = 4) (a : Pipeline.artifact) =
  let gate_delay = config.Ss.gate_delay and ee_overhead = config.Ss.ee_overhead in
  let pl = a.Pipeline.pl in
  let pl_eq1 = a.Pipeline.pl_ee and rep_eq1 = a.Pipeline.synth_report in
  let pl_mcr, rep_mcr = Ee_core.Mcr_select.run ?options:mcr_options pl in
  let masters (r : Ee_core.Synth.report) =
    List.map (fun c -> c.Ee_core.Synth.master) r.Ee_core.Synth.inserted
  in
  let eq1_m = masters rep_eq1 and mcr_m = masters rep_mcr in
  let shared = List.length (List.filter (fun m -> List.mem m eq1_m) mcr_m) in
  let lambda pl = (Throughput.analyze ~gate_delay ~ee_overhead pl).Throughput.lambda in
  {
    sel_id = a.Pipeline.id;
    eq1_gates = rep_eq1.Ee_core.Synth.ee_gates;
    mcr_gates = rep_mcr.Ee_core.Synth.ee_gates;
    eq1_lambda = lambda pl_eq1;
    mcr_lambda = lambda pl_mcr;
    eq1_gain = Ss.throughput_gain ~config pl pl_eq1 ~waves ~seed;
    mcr_gain = Ss.throughput_gain ~config pl pl_mcr ~waves ~seed;
    overlap_percent =
      (if mcr_m = [] then 0.
       else 100. *. float_of_int shared /. float_of_int (List.length mcr_m));
  }

type t = {
  rows : bench_row list;
  selection : selection_row list;
}

let run ?options ?config ?waves ?seed ?(benchmarks = Itc99.all)
    ?(selection_benchmarks = Itc99.all) () =
  (* One build per benchmark, shared by its row and its selection row. *)
  let built = Hashtbl.create 16 in
  let artifact (b : Itc99.benchmark) =
    match Hashtbl.find_opt built b.Itc99.id with
    | Some a -> a
    | None ->
        let a = Pipeline.build ?options b in
        Hashtbl.add built b.Itc99.id a;
        a
  in
  {
    rows = List.map (fun b -> analyze_bench ?config ?waves ?seed (artifact b)) benchmarks;
    selection = List.map (fun b -> compare_selection ?config (artifact b)) selection_benchmarks;
  }

(* Geometric means over the per-benchmark ratios; the ratios are strictly
   positive so Stats.geomean applies. *)
let geomean_sim_ratio t =
  Stats.geomean
    (Array.of_list (List.map (fun r -> r.sim_no_ee /. r.lambda_no_ee) t.rows))

let geomean_analytic_speedup t =
  Stats.geomean
    (Array.of_list (List.map (fun r -> r.lambda_no_ee /. r.lambda_expected) t.rows))

let to_table t =
  let tab =
    Table.create
      ~headers:
        [
          "Bench";
          "Lambda (no EE)";
          "Sim (no EE)";
          "Err %";
          "L eager";
          "L expected";
          "L guarded";
          "Sim (EE)";
          "Err %";
          "Critical Cycle";
        ]
  in
  List.iter
    (fun r ->
      Table.add_row tab
        [
          r.id;
          Printf.sprintf "%.3f" r.lambda_no_ee;
          Printf.sprintf "%.3f" r.sim_no_ee;
          Printf.sprintf "%.1f" r.err_no_ee;
          Printf.sprintf "%.3f" r.lambda_eager;
          Printf.sprintf "%.3f" r.lambda_expected;
          Printf.sprintf "%.3f" r.lambda_guarded;
          Printf.sprintf "%.3f" r.sim_ee;
          Printf.sprintf "%.1f" r.err_ee;
          r.critical_cycle;
        ])
    t.rows;
  Table.add_separator tab;
  Table.add_row tab
    [
      "geomean";
      "";
      Printf.sprintf "sim/analytic %.3f" (geomean_sim_ratio t);
      "";
      "";
      Printf.sprintf "speedup x%.3f" (geomean_analytic_speedup t);
      "";
      "";
      "";
      "";
    ];
  tab

let selection_to_table t =
  let tab =
    Table.create
      ~headers:
        [
          "Bench";
          "EE Gates (Eq1)";
          "EE Gates (MCR)";
          "Lambda (Eq1)";
          "Lambda (MCR)";
          "Gain % (Eq1)";
          "Gain % (MCR)";
          "Overlap %";
        ]
  in
  List.iter
    (fun r ->
      Table.add_row tab
        [
          r.sel_id;
          string_of_int r.eq1_gates;
          string_of_int r.mcr_gates;
          Printf.sprintf "%.3f" r.eq1_lambda;
          Printf.sprintf "%.3f" r.mcr_lambda;
          Printf.sprintf "%.1f" r.eq1_gain;
          Printf.sprintf "%.1f" r.mcr_gain;
          Printf.sprintf "%.0f" r.overlap_percent;
        ])
    t.selection;
  tab

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json t =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n  \"benchmarks\": [\n";
  List.iteri
    (fun i r ->
      add
        "    {\"id\": %S, \"lambda_no_ee\": %.6f, \"karp_gap\": %.3e, \"sim_no_ee\": \
         %.6f, \"err_no_ee_percent\": %.3f, \"lambda_eager\": %.6f, \
         \"lambda_expected\": %.6f, \"lambda_guarded\": %.6f, \"sim_ee\": %.6f, \
         \"err_ee_percent\": %.3f, \"analytic_gain_percent\": %.3f, \
         \"critical_cycle\": \"%s\"}%s\n"
        r.id r.lambda_no_ee r.karp_gap r.sim_no_ee r.err_no_ee r.lambda_eager
        r.lambda_expected r.lambda_guarded r.sim_ee r.err_ee r.analytic_gain
        (json_escape r.critical_cycle)
        (if i = List.length t.rows - 1 then "" else ","))
    t.rows;
  add "  ],\n  \"selection\": [\n";
  List.iteri
    (fun i r ->
      add
        "    {\"id\": %S, \"eq1_ee_gates\": %d, \"mcr_ee_gates\": %d, \
         \"eq1_lambda\": %.6f, \"mcr_lambda\": %.6f, \"eq1_gain_percent\": %.3f, \
         \"mcr_gain_percent\": %.3f, \"overlap_percent\": %.1f}%s\n"
        r.sel_id r.eq1_gates r.mcr_gates r.eq1_lambda r.mcr_lambda r.eq1_gain
        r.mcr_gain r.overlap_percent
        (if i = List.length t.selection - 1 then "" else ","))
    t.selection;
  add "  ],\n";
  add "  \"geomean_sim_over_analytic\": %.6f,\n" (geomean_sim_ratio t);
  add "  \"geomean_analytic_speedup\": %.6f\n" (geomean_analytic_speedup t);
  add "}\n";
  Buffer.contents b
