(* Benchmark harness: regenerates every table and figure of the paper
   (see DESIGN.md's experiment index) and runs Bechamel micro-benchmarks of
   the core algorithms.

   Usage:
     main.exe                 run everything
     main.exe --table 1|2|3   one paper table
     main.exe --sweep         threshold sweep (ablation A)
     main.exe --ablation-cost cost-weighting ablation (ablation B)
     main.exe --micro         Bechamel micro-benchmarks only
     main.exe --engine        parallel-suite scaling run (writes BENCH_engine.json;
                              exits non-zero when a multi-core machine shows
                              speedup <= 1, or when parallel rows diverge)
     main.exe --domains N     worker domains for the --engine parallel run
                              (default: max 2 recommended_domain_count)
     main.exe --perf          analytic throughput vs simulation (writes BENCH_perf.json)
     main.exe --faults        fault campaigns on every ITC99 EE netlist
                              (writes BENCH_faults.json)
     main.exe --selection-timeout S   per-benchmark budget for the --perf
                              MCR-greedy selection sweep (default 120 s)
     main.exe --serve         ee_synthd cold/warm latency and the import path per
                              layer (writes BENCH_serve.json)
     main.exe --chaos         supervised ee_fleet under SIGKILL/corruption load
                              (merges a "chaos" section into BENCH_serve.json;
                              exits non-zero on any wrong or dropped reply, a
                              served-not-quarantined corrupt tier entry, and —
                              on multi-core machines — an availability or
                              recovery-time gate miss)
     main.exe --corpus        arbitrary-netlist frontend sweep: 120 generated
                              BLIF/AIGER circuits (plus any --corpus-dir files)
                              through parse -> delay remap -> equivalence proof
                              -> EE measurement, and the ITC99 delay-vs-techmap
                              depth gate (writes BENCH_corpus.json; exits
                              non-zero on any taxonomy or depth-gate failure)
     main.exe --corpus-dir D  also sweep the .blif/.aag/.aig files in D
     main.exe --search        CEGIS trigger search vs brute force and the
                              ITC99 shared-trigger period table (writes
                              BENCH_search.json; exits non-zero if pruned
                              search loses to brute force at arity 6, on
                              any search/brute disagreement, or if sharing
                              regresses any bench's period)
     main.exe --fast          fewer vectors (CI-friendly)
     main.exe --csv           also print Table 3 as CSV *)

module Engine = Ee_engine.Engine
module Trace = Ee_engine.Trace

let vectors = ref 100

let seed = 2002

let section title = Printf.printf "\n=== %s ===\n%!" title

let suite_spec () = Engine.default_spec |> Engine.with_vectors !vectors |> Engine.with_seed seed

let print_table1 () =
  section "Table 1: Truth Tables for Master and Trigger Functions";
  Printf.printf "Master: full-adder carry-out  c(a+b) + ab\n";
  Printf.printf "Trigger: ab + a'b'  (support {a,b})\n\n";
  Ee_util.Table.print (Ee_report.Tables.table1 ());
  Printf.printf "Coverage: %.0f%% (paper: 50%%)\n" (Ee_report.Tables.table1_coverage ())

let print_table2 () =
  section "Table 2: Determination of Candidate Trigger Functions";
  Ee_util.Table.print (Ee_report.Tables.table2 ());
  Printf.printf
    "Cubes supported on {a,b} cover 4 of 8 minterms -> coverage 50%% (paper: 50%%)\n";
  Printf.printf "Trigger ON cube list: {00-, 11-} -> f_trig = ab + a'b'\n"

let print_table3 ?(csv = false) () =
  section "Table 3: Experimental Results Comparing the Use of EE in PL Synthesis";
  Printf.printf
    "(%d random vectors per circuit, seed %d; delays in PL gate-delay units)\n\n" !vectors
    seed;
  let suite = Engine.run_suite ~spec:(suite_spec ()) () in
  let t3 = suite.Engine.table3 in
  let t = Ee_report.Tables.table3_to_table t3 in
  Ee_util.Table.print t;
  Printf.printf "\nPaper headline: average speedup > 13%%, average area increase ~ 33%%.\n";
  Printf.printf "Measured:       average speedup %.1f%%, average area increase %.0f%%.\n"
    t3.Ee_report.Tables.avg_delay_decrease t3.Ee_report.Tables.avg_area_increase;
  if csv then begin
    section "Table 3 (CSV)";
    print_string (Ee_util.Table.to_csv t)
  end

let print_sweep () =
  section "Ablation A: cost-threshold sweep (area vs. delay trade-off, paper Sec. 4)";
  let thresholds = [ 0.; 50.; 100.; 200.; 400.; 800. ] in
  List.iter
    (fun id ->
      let b = Ee_bench_circuits.Itc99.find id in
      Printf.printf "\n%s (%s):\n" b.Ee_bench_circuits.Itc99.id
        b.Ee_bench_circuits.Itc99.description;
      let points = Ee_report.Sweep.run ~vectors:!vectors ~seed ~thresholds b in
      Ee_util.Table.print (Ee_report.Sweep.to_table points))
    [ "b04"; "b11"; "b14" ]

let print_ablation_cost () =
  section "Ablation B: Equation 1 weighting vs. coverage-only cost";
  let rows = Ee_report.Ablation.run ~vectors:!vectors ~seed () in
  Ee_util.Table.print (Ee_report.Ablation.to_table rows);
  let avg get = Ee_util.Stats.mean (Array.of_list (List.map get rows)) in
  Printf.printf "Average: Eq. 1 %.1f%% vs coverage-only %.1f%%\n"
    (avg (fun r -> r.Ee_report.Ablation.weighted_decrease))
    (avg (fun r -> r.Ee_report.Ablation.coverage_only_decrease))

let print_stream () =
  section "Extension: streaming (pipelined) throughput, EE vs no-EE";
  Printf.printf
    "Steady-state cycle time with many waves in flight.  EE shortens the\n\
     token's trip around register loops (which bound FSM throughput) but\n\
     only adds Muller-C overhead on saturated feedforward arrays.\n\n";
  let t =
    Ee_util.Table.create
      ~headers:
        [ "Benchmark"; "Cycle (no EE)"; "Cycle (EE)"; "Gain"; "Serialized settle (no EE)" ]
  in
  List.iter
    (fun id ->
      let b = Ee_bench_circuits.Itc99.find id in
      let a = Ee_report.Pipeline.build b in
      let base = Ee_sim.Stream_sim.run_random a.Ee_report.Pipeline.pl ~waves:200 ~seed:seed in
      let ee = Ee_sim.Stream_sim.run_random a.Ee_report.Pipeline.pl_ee ~waves:200 ~seed:seed in
      let serial = Ee_sim.Sim.run_random a.Ee_report.Pipeline.pl ~vectors:50 ~seed:seed in
      Ee_util.Table.add_row t
        [
          id;
          Printf.sprintf "%.2f" base.Ee_sim.Stream_sim.cycle_time;
          Printf.sprintf "%.2f" ee.Ee_sim.Stream_sim.cycle_time;
          Printf.sprintf "%.1f%%"
            (Ee_util.Stats.percent_change ~before:base.Ee_sim.Stream_sim.cycle_time
               ~after:ee.Ee_sim.Stream_sim.cycle_time);
          Printf.sprintf "%.2f" serial.Ee_sim.Sim.avg_settle_time;
        ])
    [ "b01"; "b03"; "b06"; "b09"; "b12"; "b13" ];
  Ee_util.Table.print t

let print_feedback () =
  section "Extension: feedback (acknowledge) minimization (paper Sec. 1 claim)";
  Printf.printf
    "Feedback arcs provably redundant — another circuit with one token\n\
     already protects the data arc (typically a register loop).\n\n";
  let t =
    Ee_util.Table.create
      ~headers:[ "Benchmark"; "Feedback arcs"; "Removable"; "Savings"; "Still live+safe" ]
  in
  let broken = ref [] in
  List.iter
    (fun id ->
      let b = Ee_bench_circuits.Itc99.find id in
      let nl = Ee_rtl.Techmap.run_rtl (b.Ee_bench_circuits.Itc99.build ()) in
      let a = Ee_phased.Feedback.analyze (Ee_phased.Pl.of_netlist nl) in
      let ok =
        Ee_markedgraph.Marked_graph.is_live a.Ee_phased.Feedback.graph
        && Ee_markedgraph.Marked_graph.is_safe a.Ee_phased.Feedback.graph
      in
      if not ok then broken := id :: !broken;
      Ee_util.Table.add_row t
        [
          id;
          string_of_int a.Ee_phased.Feedback.total_feedbacks;
          string_of_int (List.length a.Ee_phased.Feedback.removed);
          Printf.sprintf "%.0f%%" (Ee_phased.Feedback.savings_percent a);
          (if ok then "yes" else "NO");
        ])
    [ "b01"; "b02"; "b06"; "b08"; "b09" ];
  Ee_util.Table.print t;
  if !broken <> [] then begin
    Printf.printf "FAIL: minimized marked graph not live and safe: %s\n"
      (String.concat " " (List.rev !broken));
    exit 1
  end

let print_analysis () =
  section "Extension: analytical delay prediction vs simulation";
  Printf.printf
    "Signal-probability model (no vectors run) against the 100-vector\n\
     simulated averages.\n\n";
  let t =
    Ee_util.Table.create
      ~headers:
        [ "Benchmark"; "Predicted (EE)"; "Simulated (EE)"; "Error"; "Predicted speedup"; "Simulated speedup" ]
  in
  List.iter
    (fun id ->
      let b = Ee_bench_circuits.Itc99.find id in
      let a = Ee_report.Pipeline.build b in
      let pred = (Ee_core.Analysis.predict a.Ee_report.Pipeline.pl_ee).Ee_core.Analysis.predicted_settle in
      let sim = (Ee_sim.Sim.run_random a.Ee_report.Pipeline.pl_ee ~vectors:!vectors ~seed).Ee_sim.Sim.avg_settle_time in
      let base = (Ee_sim.Sim.run_random a.Ee_report.Pipeline.pl ~vectors:!vectors ~seed).Ee_sim.Sim.avg_settle_time in
      Ee_util.Table.add_row t
        [
          id;
          Printf.sprintf "%.2f" pred;
          Printf.sprintf "%.2f" sim;
          Printf.sprintf "%.0f%%" (abs_float (pred -. sim) /. sim *. 100.);
          Printf.sprintf "%.1f%%"
            (Ee_core.Analysis.predicted_speedup a.Ee_report.Pipeline.pl a.Ee_report.Pipeline.pl_ee);
          Printf.sprintf "%.1f%%" (Ee_util.Stats.percent_change ~before:base ~after:sim);
        ])
    [ "b04"; "b05"; "b07"; "b11"; "b12"; "b14" ];
  Ee_util.Table.print t

let print_budget () =
  section "Extension: area-budgeted EE selection (knapsack by Eq. 1 cost)";
  List.iter
    (fun id ->
      let b = Ee_bench_circuits.Itc99.find id in
      let pl =
        Ee_phased.Pl.of_netlist (Ee_rtl.Techmap.run_rtl (b.Ee_bench_circuits.Itc99.build ()))
      in
      Printf.printf "\n%s:\n" id;
      let t =
        Ee_util.Table.create ~headers:[ "Budget (triggers)"; "% Area"; "Avg Delay" ]
      in
      List.iter
        (fun (budget, area, delay) ->
          Ee_util.Table.add_row t
            [ string_of_int budget; Printf.sprintf "%.0f%%" area; Printf.sprintf "%.2f" delay ])
        (Ee_core.Budget.pareto ~vectors:!vectors ~seed pl
           ~budgets:[ 0; 10; 25; 50; 100; 1000 ]);
      Ee_util.Table.print t)
    [ "b04"; "b14" ]

let print_jitter () =
  section "Extension: Eq. 1 robustness under per-gate delay variation";
  Printf.printf
    "Triggers are chosen assuming unit gate delays; here the netlists are\n\
     simulated with per-gate latencies jittered by up to the given spread\n\
     (uniform, seeded).  The EE speedup should degrade gracefully.\n\n";
  let t =
    Ee_util.Table.create
      ~headers:[ "Benchmark"; "Jitter"; "Delay no-EE"; "Delay EE"; "EE gain" ]
  in
  List.iter
    (fun id ->
      let a = Ee_report.Pipeline.build (Ee_bench_circuits.Itc99.find id) in
      List.iter
        (fun spread ->
          let run pl =
            let delays =
              Ee_sim.Delay_model.jittered pl ~gate_delay:1.0 ~spread ~seed:5
            in
            let sim = Ee_sim.Sim.create_with_delays ~delays pl in
            let rng = Ee_util.Prng.create seed in
            let width = Array.length (Ee_phased.Pl.source_ids pl) in
            let acc = ref 0. in
            for _ = 1 to !vectors do
              acc :=
                !acc
                +. (Ee_sim.Sim.apply sim (Ee_util.Prng.bool_vector rng width))
                     .Ee_sim.Sim.settle_time
            done;
            !acc /. float_of_int !vectors
          in
          let base = run a.Ee_report.Pipeline.pl in
          let ee = run a.Ee_report.Pipeline.pl_ee in
          Ee_util.Table.add_row t
            [
              id;
              Printf.sprintf "%.0f%%" (spread *. 100.);
              Printf.sprintf "%.2f" base;
              Printf.sprintf "%.2f" ee;
              Printf.sprintf "%.1f%%" (Ee_util.Stats.percent_change ~before:base ~after:ee);
            ])
        [ 0.; 0.2; 0.4 ])
    [ "b04"; "b12" ];
  Ee_util.Table.print t

let print_ring () =
  section "Extension: self-timed ring canopy (paper refs [9], [22])";
  Printf.printf
    "Throughput of a ring of PL gates vs token occupancy: token-limited\n\
     below half occupancy, handshake-floor bound above (the input queue\n\
     the PL cell provides keeps rings from hole-starving).  Measured by\n\
     the streaming simulator against the analytic canopy bound.\n\n";
  let t =
    Ee_util.Table.create
      ~headers:[ "Tokens"; "Effective stages"; "Measured period"; "Canopy bound" ]
  in
  List.iter
    (fun tokens ->
      let r = Ee_sim.Ring.build ~stages:24 ~tokens in
      Ee_util.Table.add_row t
        [
          string_of_int tokens;
          string_of_int r.Ee_sim.Ring.actual_stages;
          Printf.sprintf "%.2f" (Ee_sim.Ring.period ~waves:200 r);
          Printf.sprintf "%.2f" (Ee_sim.Ring.theoretical_period r);
        ])
    [ 1; 2; 3; 4; 6; 8; 12; 16; 20; 23 ];
  Ee_util.Table.print t

let print_distribution () =
  section "Extension: settle-time distributions (paper ref [19]: delays are statistical)";
  Printf.printf
    "Without EE the settle time is the structural critical path (a single\n\
     spike); with EE it becomes input-dependent and spreads out.\n\n";
  List.iter
    (fun id ->
      let b = Ee_bench_circuits.Itc99.find id in
      let a = Ee_report.Pipeline.build b in
      let r = Ee_sim.Sim.run_random a.Ee_report.Pipeline.pl_ee ~vectors:400 ~seed in
      let base = Ee_sim.Sim.run_random a.Ee_report.Pipeline.pl ~vectors:400 ~seed in
      let s = Ee_util.Stats.summarize r.Ee_sim.Sim.settle_times in
      Printf.printf "%s (no-EE constant %.1f):  EE %s\n" id
        base.Ee_sim.Sim.settle_times.(0)
        (Format.asprintf "%a" Ee_util.Stats.pp_summary s);
      (* Ten-bin histogram between min and max. *)
      let bins = 10 in
      let lo = s.Ee_util.Stats.min and hi = s.Ee_util.Stats.max in
      if hi > lo then begin
        let counts = Array.make bins 0 in
        Array.iter
          (fun t ->
            let k = int_of_float (float_of_int bins *. (t -. lo) /. (hi -. lo)) in
            let k = min k (bins - 1) in
            counts.(k) <- counts.(k) + 1)
          r.Ee_sim.Sim.settle_times;
        let peak = Array.fold_left max 1 counts in
        Array.iteri
          (fun k c ->
            Printf.printf "  %6.2f-%6.2f | %-40s %d\n"
              (lo +. (float_of_int k *. (hi -. lo) /. float_of_int bins))
              (lo +. (float_of_int (k + 1) *. (hi -. lo) /. float_of_int bins))
              (String.make (c * 40 / peak) '#')
              c)
          counts
      end;
      print_newline ())
    [ "b04"; "b12" ]

let print_families () =
  section "Extension: which circuit families benefit from EE (trigger theory)";
  Printf.printf
    "Generate/kill-dominated chains trigger richly; XOR-dominated logic\n\
     admits no trigger at all (an XOR is never constant under a proper\n\
     input subset).  Width 16 operands, %d vectors.\n\n" !vectors;
  let t =
    Ee_util.Table.create
      ~headers:
        [ "Family"; "LUTs"; "EE gates"; "Delay no-EE"; "Delay EE"; "Gain"; "Early rate" ]
  in
  List.iter
    (fun (f : Ee_bench_circuits.Families.family) ->
      let d = f.Ee_bench_circuits.Families.build 16 in
      let nl = Ee_rtl.Techmap.run_rtl d in
      let pl = Ee_phased.Pl.of_netlist nl in
      let pl_ee, rep = Ee_core.Synth.run pl in
      let base = Ee_sim.Sim.run_random pl ~vectors:!vectors ~seed in
      let ee = Ee_sim.Sim.run_random pl_ee ~vectors:!vectors ~seed in
      Ee_util.Table.add_row t
        [
          f.Ee_bench_circuits.Families.name;
          string_of_int (Ee_netlist.Netlist.lut_count nl);
          string_of_int rep.Ee_core.Synth.ee_gates;
          Printf.sprintf "%.2f" base.Ee_sim.Sim.avg_settle_time;
          Printf.sprintf "%.2f" ee.Ee_sim.Sim.avg_settle_time;
          Printf.sprintf "%.1f%%"
            (Ee_util.Stats.percent_change ~before:base.Ee_sim.Sim.avg_settle_time
               ~after:ee.Ee_sim.Sim.avg_settle_time);
          Printf.sprintf "%.2f" ee.Ee_sim.Sim.early_fire_rate;
        ])
    Ee_bench_circuits.Families.all;
  Ee_util.Table.print t

let print_mappers () =
  section "Extension: technology-mapping style vs. EE benefit (paper Sec. 1, ref [4])";
  Printf.printf
    "Greedy area packing (a generic synchronous flow), depth-optimal\n\
     mapping (worst-case objective) and EE-aware average-case mapping.\n\
     Worst-case-oriented mapping hides arrival skew and starves EE —\n\
     the paper's motivation for average-case asynchronous mappers.\n\n";
  let t =
    Ee_util.Table.create
      ~headers:
        [ "Benchmark"; "Mapper"; "LUTs"; "Depth"; "Delay no-EE"; "Delay EE"; "EE gain" ]
  in
  List.iter
    (fun id ->
      let b = Ee_bench_circuits.Itc99.find id in
      let d = b.Ee_bench_circuits.Itc99.build () in
      List.iter
        (fun (tag, nl) ->
          let pl = Ee_phased.Pl.of_netlist nl in
          let pl_ee, _ = Ee_core.Synth.run pl in
          let base = Ee_sim.Sim.run_random pl ~vectors:!vectors ~seed in
          let ee = Ee_sim.Sim.run_random pl_ee ~vectors:!vectors ~seed in
          Ee_util.Table.add_row t
            [
              id;
              tag;
              string_of_int (Ee_netlist.Netlist.lut_count nl);
              string_of_int (Ee_netlist.Netlist.depth nl);
              Printf.sprintf "%.2f" base.Ee_sim.Sim.avg_settle_time;
              Printf.sprintf "%.2f" ee.Ee_sim.Sim.avg_settle_time;
              Printf.sprintf "%.1f%%"
                (Ee_util.Stats.percent_change ~before:base.Ee_sim.Sim.avg_settle_time
                   ~after:ee.Ee_sim.Sim.avg_settle_time);
            ])
        [
          ("greedy", Ee_rtl.Techmap.run_rtl d);
          ("depth", Ee_rtl.Cutmap.run_rtl ~mode:Ee_rtl.Cutmap.Depth d);
          ("ee-aware", Ee_rtl.Cutmap.run_rtl ~mode:Ee_rtl.Cutmap.Ee_aware d);
        ])
    [ "b04"; "b11"; "b12" ];
  Ee_util.Table.print t

let print_sharing () =
  section "Extension: trigger sharing (one control gate for identical triggers)";
  let t =
    Ee_util.Table.create
      ~headers:
        [ "Benchmark"; "EE masters"; "Triggers (unshared)"; "Triggers (shared)"; "Area saved" ]
  in
  List.iter
    (fun id ->
      let b = Ee_bench_circuits.Itc99.find id in
      let pl =
        Ee_phased.Pl.of_netlist (Ee_rtl.Techmap.run_rtl (b.Ee_bench_circuits.Itc99.build ()))
      in
      let _, unshared = Ee_core.Synth.run pl in
      let _, shared =
        Ee_core.Synth.run
          ~options:{ Ee_core.Synth.default_options with share_triggers = true }
          pl
      in
      Ee_util.Table.add_row t
        [
          id;
          string_of_int (List.length unshared.Ee_core.Synth.inserted);
          string_of_int unshared.Ee_core.Synth.ee_gates;
          string_of_int shared.Ee_core.Synth.ee_gates;
          Printf.sprintf "%.0f%%"
            (100.
            *. float_of_int (unshared.Ee_core.Synth.ee_gates - shared.Ee_core.Synth.ee_gates)
            /. float_of_int (max 1 unshared.Ee_core.Synth.ee_gates));
        ])
    [ "b03"; "b04"; "b07"; "b12"; "b14"; "b15" ];
  Ee_util.Table.print t

let print_ncl () =
  section "Extension: PL (+EE) vs. NULL Convention Logic (paper Sec. 1 comparison)";
  Printf.printf
    "NCL via the canonical DIMS construction: strongly indicating (no early\n\
     evaluation possible) and paying a NULL wave per computation; PL keeps\n\
     synchronous-sized blocks plus per-gate control.\n\n";
  let t =
    Ee_util.Table.create
      ~headers:
        [
          "Benchmark"; "LUTs"; "NCL th-gates"; "Blow-up"; "PL+EE wave"; "NCL DATA wave";
          "NCL cycle (DATA+NULL)";
        ]
  in
  List.iter
    (fun id ->
      let b = Ee_bench_circuits.Itc99.find id in
      let nl = Ee_rtl.Techmap.run_rtl (b.Ee_bench_circuits.Itc99.build ()) in
      let ncl = Ee_ncl.Ncl.of_netlist nl in
      let pl = Ee_phased.Pl.of_netlist nl in
      let pl_ee, _ = Ee_core.Synth.run pl in
      let ncl_run = Ee_ncl.Ncl.run_random ncl ~vectors:!vectors ~seed in
      let pl_run = Ee_sim.Sim.run_random pl_ee ~vectors:!vectors ~seed in
      let luts = Ee_netlist.Netlist.lut_count nl in
      Ee_util.Table.add_row t
        [
          id;
          string_of_int luts;
          string_of_int (Ee_ncl.Ncl.gate_count ncl);
          Printf.sprintf "%.1fx"
            (float_of_int (Ee_ncl.Ncl.gate_count ncl) /. float_of_int (max 1 luts));
          Printf.sprintf "%.2f" pl_run.Ee_sim.Sim.avg_settle_time;
          Printf.sprintf "%.2f" ncl_run.Ee_ncl.Ncl.avg_data_time;
          Printf.sprintf "%.2f" ncl_run.Ee_ncl.Ncl.avg_cycle;
        ])
    [ "b01"; "b04"; "b09"; "b11"; "b13" ];
  Ee_util.Table.print t

(* Engine scaling: run a grown suite (the 15 ITC99 circuits plus synthetic
   family circuits at widths that dominate scheduling overhead) at 1 and N
   domains, check the rows agree, and write the wall-clocks to
   BENCH_engine.json so the perf trajectory is tracked across PRs.

   The scaling gate: on a machine with >= 2 cores, a parallel run that is
   not faster than the sequential one is a regression and fails the bench
   (exit 1).  On a single-core machine true parallel speedup is physically
   impossible (extra domains only add stop-the-world GC synchronization),
   so the gate is recorded in the JSON as not enforced; CI runs this on
   multi-core runners where it bites. *)

let engine_benchmarks () =
  let module Families = Ee_bench_circuits.Families in
  let module Itc99 = Ee_bench_circuits.Itc99 in
  let synthetic (f : Families.family) width =
    {
      Itc99.id = Printf.sprintf "%s%d" f.Families.name width;
      description = Printf.sprintf "%s, width %d (synthetic)" f.Families.description width;
      build = (fun () -> f.Families.build width);
    }
  in
  (* Widths capped by Rtl.max_width = 30. *)
  Engine.benchmarks
  @ List.concat_map
      (fun f -> [ synthetic f 20; synthetic f 28 ])
      Families.all

let print_engine ?domains () =
  section "Engine: parallel suite wall-clock (Ee_engine.Engine.run_suite)";
  let cores = Domain.recommended_domain_count () in
  let n = match domains with Some d -> d | None -> max 2 cores in
  (* 4x the table vectors: enough simulation work per row that the suite is
     compute-bound rather than dominated by pool scheduling. *)
  let engine_vectors = 4 * !vectors in
  let spec = suite_spec () |> Engine.with_vectors engine_vectors in
  let benchmarks = engine_benchmarks () in
  let trace = Trace.create () in
  let memo = Ee_core.Trigger.Memo.create () in
  let s1 = Engine.run_suite ~spec ~domains:1 ~benchmarks () in
  let sn = Engine.run_suite ~spec ~trace ~domains:n ~memo ~benchmarks () in
  let rows_match = s1.Engine.table3 = sn.Engine.table3 in
  let speedup = s1.Engine.wall_clock_s /. Float.max sn.Engine.wall_clock_s 1e-9 in
  let gate_enforced = cores >= 2 && n >= 2 in
  Printf.printf "1 domain: %.2f s   %d domains: %.2f s   speedup %.2fx   rows %s\n"
    s1.Engine.wall_clock_s n sn.Engine.wall_clock_s speedup
    (if rows_match then "identical" else "DIVERGED");
  Printf.printf
    "(%d benchmarks, %d vectors; %d cores on this machine; %d distinct LUT4 \
     functions memoized)\n"
    (List.length benchmarks) engine_vectors cores
    (Ee_core.Trigger.Memo.entries memo);
  List.iter
    (fun f -> Printf.printf "  failed: %s\n" (Engine.failure_to_string f))
    (Engine.failures sn);
  Printf.printf "\nPer-stage profile at %d domains:\n" n;
  Ee_util.Table.print (Trace.summary_table trace);
  let json =
    Printf.sprintf
      "{\n  \"benchmarks\": %d,\n  \"vectors\": %d,\n  \"seed\": %d,\n\
      \  \"cores\": %d,\n  \"domains_1_wall_s\": %.4f,\n  \"domains_n\": %d,\n\
      \  \"domains_n_wall_s\": %.4f,\n  \"speedup\": %.3f,\n\
      \  \"rows_match\": %b,\n  \"gate_enforced\": %b\n}\n"
      (List.length s1.Engine.results)
      engine_vectors seed cores s1.Engine.wall_clock_s n sn.Engine.wall_clock_s speedup
      rows_match gate_enforced
  in
  let oc = open_out "BENCH_engine.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote BENCH_engine.json\n";
  if not rows_match then begin
    Printf.printf "FAIL: parallel rows diverged from the sequential run\n";
    exit 1
  end;
  if gate_enforced && speedup <= 1.0 then begin
    Printf.printf "FAIL: %d-domain suite not faster than sequential (%.2fx <= 1.0x)\n" n
      speedup;
    exit 1
  end;
  if not gate_enforced then
    Printf.printf
      "note: speedup gate not enforced (%d core%s available — parallel speedup \
       impossible here; CI enforces it on multi-core runners)\n"
      cores
      (if cores = 1 then "" else "s")

(* Analytic throughput: the static MCR analyzer against the streaming
   simulator on every benchmark, plus the MCR-greedy vs Equation-1
   selection comparison; the JSON lands in BENCH_perf.json so the model's
   calibration is tracked across PRs. *)

let print_perf ?(selection_timeout = 120.) () =
  section "Perf: analytic throughput (maximum cycle ratio) vs streaming simulation";
  let waves = if !vectors < 100 then 120 else 240 in
  (* MCR-greedy selection re-analyzes the event graph for each candidate
     pair whose master is on the critical cycle; b15, the largest, plans
     in a few seconds.  Each benchmark still gets a wall-clock budget and
     is skipped — with a note — when it exceeds it.  The analytic-vs-sim
     table always covers all 15 benchmarks. *)
  Printf.printf
    "(per-benchmark MCR-greedy selection budget: %.0f s [--selection-timeout]; \
     over-budget benchmarks are skipped)\n"
    selection_timeout;
  let r = Ee_report.Perf_report.run ~waves ~selection_benchmarks:[] () in
  let selection =
    List.filter_map
      (fun b ->
        (* force_spawn so a hung/slow selection can be abandoned; the
           defaults (200 waves, seed 4) match Perf_report.run's. *)
        let pool = Ee_util.Pool.create ~force_spawn:true ~domains:1 () in
        let task =
          Ee_util.Pool.submit pool (fun () ->
              Ee_report.Perf_report.compare_selection ~waves:200 ~seed:4 b)
        in
        match Ee_util.Pool.await_timeout task ~timeout_s:selection_timeout with
        | Ok row ->
            Ee_util.Pool.shutdown pool;
            Some row
        | Error `Timed_out ->
            Ee_util.Pool.abandon pool;
            Printf.printf "  (skipping %s: selection exceeded the %.0f s budget)\n%!"
              b.Ee_bench_circuits.Itc99.id selection_timeout;
            None
        | Error (`Failed (e, bt)) ->
            Ee_util.Pool.abandon pool;
            Printexc.raise_with_backtrace e bt)
      Ee_bench_circuits.Itc99.all
  in
  let r = { r with Ee_report.Perf_report.selection } in
  Ee_util.Table.print (Ee_report.Perf_report.to_table r);
  Printf.printf "\nMCR-greedy vs Equation-1 EE selection:\n";
  Ee_util.Table.print (Ee_report.Perf_report.selection_to_table r);
  let oc = open_out "BENCH_perf.json" in
  output_string oc (Ee_report.Perf_report.to_json r);
  close_out oc;
  Printf.printf "wrote BENCH_perf.json\n"

(* The synthesis service: cold vs warm (content-addressed cache hit)
   latency, closed-loop pipelined warm throughput, then an open-loop load
   test — many simulated clients multiplexed from a few driver domains,
   mixed warm/cold/non-cacheable traffic at a fixed arrival rate —
   recording cold/warm p50/p90/p99, per-tier rejection counts and shard
   balance, plus the import path per layer and cold import latency.
   Writes BENCH_serve.json; fails the run if the warm path is
   less than 10x faster than cold, and (on multi-core machines) if warm
   p99 under load blows past the p50-relative gate or a shard starves. *)

(* Per-driver outcome of the open-loop phase. *)
type load_result = {
  lr_sent : int;
  lr_completed : int;
  lr_dropped : int;  (* skipped sends: per-connection outstanding cap hit *)
  lr_unanswered : int;  (* still pending when the drain window closed *)
  lr_warm : float list;  (* latency ms per traffic class *)
  lr_cold : float list;
  lr_sleep : float list;
  lr_errs : (string * int) list;  (* structured error code -> count *)
}

(* Pull the "error" code out of a response line without a full JSON parse:
   the load loop handles thousands of lines per second. *)
let extract_error line =
  let marker = "\"error\":\"" in
  let n = String.length line and m = String.length marker in
  let rec find i =
    if i + m > n then None
    else if String.sub line i m = marker then Some (i + m)
    else find (i + 1)
  in
  Option.bind (find 0) (fun s ->
      Option.map
        (fun e -> String.sub line s (e - s))
        (String.index_from_opt line s '"'))

(* The import path layer by layer, over the 31 import texts of the
   perfbench [serve_mix] workload (b01, b02, b03, b06, b08, b09 and b10 as
   ASCII AIGER, binary AIGER and BLIF, then ten corpus entries of seed
   2002): parse, the canonical BLIF of the cache key, the remapper's
   lowering to gates, cut labeling plus emission in [Delay] mode, and the
   Eq. 1 plan plus Table 3 row at 100 vectors.  Per layer, wall ms and
   minor words per text, the best of five passes. *)
let import_vectors = 100

let import_texts () =
  List.concat_map
    (fun id ->
      let b = Ee_bench_circuits.Itc99.find id in
      let nl = Ee_rtl.Techmap.run_rtl (b.Ee_bench_circuits.Itc99.build ()) in
      [
        Ee_frontend.Aiger.to_ascii nl;
        Ee_frontend.Aiger.to_binary nl;
        Ee_export.Blif.to_blif ~model:id nl;
      ])
    [ "b01"; "b02"; "b03"; "b06"; "b08"; "b09"; "b10" ]
  @ List.map (fun e -> e.Ee_frontend.Corpus.e_text) (Ee_frontend.Corpus.generate ~seed ~n:10)

let import_layers texts =
  let module Remap = Ee_frontend.Remap in
  let texts = Array.of_list texts in
  let parsed = Array.map (fun t -> Ee_frontend.Frontend.parse_exn t) texts in
  let lowered = Array.map Remap.to_gates parsed in
  let mapped = Array.map (fun nl -> Remap.run nl) parsed in
  let spec = suite_spec () |> Engine.with_vectors import_vectors in
  let layer name inputs f =
    let n = float_of_int (Array.length inputs) in
    let best = ref infinity and words = ref 0. in
    for _ = 1 to 5 do
      let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
      Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) inputs;
      best := Float.min !best (Unix.gettimeofday () -. t0);
      words := Gc.minor_words () -. w0
    done;
    (name, !best *. 1000. /. n, !words /. n)
  in
  [
    layer "parse" texts (fun t -> Ee_frontend.Frontend.parse_exn t);
    layer "canonical_blif" parsed (fun nl -> Ee_export.Blif.to_blif nl);
    layer "lowering" parsed Remap.to_gates;
    layer "cut_labeling_emission" lowered (fun g ->
        Ee_rtl.Cutmap.run ~mode:Ee_rtl.Cutmap.Delay ~flat_ports:true g);
    layer "plan_row" mapped (fun nl ->
        let pl = Ee_phased.Pl.of_netlist nl in
        let pl_ee, report = Engine.plan spec pl in
        Ee_report.Tables.row ~vectors:import_vectors ~seed ~config:(Engine.sim_config spec)
          ~id:"netlist" ~description:"" report pl pl_ee);
  ]

let print_serve ~clients () =
  section "Serve: sharded ee_synthd cold/warm latency and load test";
  let module Server = Ee_serve.Server in
  let module Client = Ee_serve.Client in
  let module Json = Ee_export.Json in
  let sock = Filename.concat (Filename.get_temp_dir_name ()) "ee_synthd_bench.sock" in
  (* The server runs in this process, so every simulated client costs two
     fds here; Unix.select caps fd values below 1024. *)
  let clients =
    if clients > 384 then begin
      Printf.printf "(capping --clients %d to 384: select FD_SETSIZE)\n" clients;
      384
    end
    else max 4 clients
  in
  (* The import layers are timed before the server's domains start, so
     no other domain shares the minor collections. *)
  let texts = import_texts () in
  let layers = import_layers texts in
  let stop = Atomic.make false in
  let shards = 2 in
  let cfg =
    {
      Server.default_config with
      Server.address = `Unix sock;
      shards;
      domains = 2;
      max_pending = 64;
    }
  in
  let server = Domain.spawn (fun () -> Server.serve ~stop cfg) in
  let c = Client.connect ~retries:100 (`Unix sock) in
  let synth_line id =
    Printf.sprintf "{\"cmd\":\"synth\",\"bench\":%S,\"vectors\":%d,\"seed\":%d}" id !vectors seed
  in
  let time_request client line =
    let t0 = Unix.gettimeofday () in
    let resp = Client.request_line client line in
    (match Json.parse resp with
    | Ok j when Json.member "status" j = Some (Json.String "ok") -> ()
    | _ -> failwith ("serve bench: request failed: " ^ resp));
    (Unix.gettimeofday () -. t0) *. 1000.
  in
  let benches = [ "b04"; "b11"; "b12" ] in
  let t =
    Ee_util.Table.create ~headers:[ "Benchmark"; "Cold (ms)"; "Warm p50 (ms)"; "Speedup" ]
  in
  let latency_rows =
    List.map
      (fun id ->
        let cold = time_request c (synth_line id) in
        let warm = Array.init 50 (fun _ -> time_request c (synth_line id)) in
        let warm_p50 = Ee_util.Stats.percentile warm 50. in
        let speedup = cold /. Float.max warm_p50 1e-6 in
        Ee_util.Table.add_row t
          [
            id;
            Printf.sprintf "%.2f" cold;
            Printf.sprintf "%.3f" warm_p50;
            Printf.sprintf "%.0fx" speedup;
          ];
        (id, cold, warm_p50, speedup))
      benches
  in
  Ee_util.Table.print t;
  (* Cold imports: each of the 31 texts once, with a seed no earlier
     request used. *)
  let import_cold =
    Array.of_list
      (List.mapi
         (fun k text ->
           let body =
             if Ee_frontend.Frontend.detect text = Ee_frontend.Frontend.Aiger_binary then
               [
                 ("text", Json.String (Ee_util.Base64.encode text));
                 ("encoding", Json.String "base64");
               ]
             else [ ("text", Json.String text) ]
           in
           time_request c
             (Json.to_string
                (Json.Obj
                   ((("cmd", Json.String "import") :: body)
                   @ [ ("vectors", Json.Int import_vectors); ("seed", Json.Int (seed + 1 + k)) ]))))
         texts)
  in
  let t =
    Ee_util.Table.create ~headers:[ "Import layer"; "ms per text"; "minor words per text" ]
  in
  List.iter
    (fun (name, ms, words) ->
      Ee_util.Table.add_row t [ name; Printf.sprintf "%.3f" ms; Printf.sprintf "%.0f" words ])
    layers;
  Ee_util.Table.print t;
  Printf.printf "cold import through the daemon: p50 %.2f ms, p90 %.2f ms (%d texts)\n"
    (Ee_util.Stats.percentile import_cold 50.)
    (Ee_util.Stats.percentile import_cold 90.)
    (Array.length import_cold);
  (* Phase A — closed-loop warm throughput: a few drivers each keep a
     pipeline of warm requests outstanding on one connection. *)
  let drivers = 4 in
  let depth = 8 in
  let phase_a_s = if !vectors <= 25 then 1.0 else 2.0 in
  let t0 = Unix.gettimeofday () in
  let counts =
    Ee_util.Pool.run ~domains:drivers
      (fun k ->
        let cc = Client.connect ~retries:10 (`Unix sock) in
        let line i = synth_line (List.nth benches ((k + i) mod 3)) in
        for i = 1 to depth do
          Client.send_line cc (line i)
        done;
        let completed = ref 0 in
        let n = ref depth in
        let t_end = t0 +. phase_a_s in
        while Unix.gettimeofday () < t_end do
          ignore (Client.recv_line cc);
          incr completed;
          incr n;
          Client.send_line cc (line !n)
        done;
        for _ = 1 to depth do
          ignore (Client.recv_line cc);
          incr completed
        done;
        Client.close cc;
        !completed)
      (List.init drivers Fun.id)
  in
  let wall = Unix.gettimeofday () -. t0 in
  let total_a = List.fold_left ( + ) 0 counts in
  let rps = float_of_int total_a /. Float.max wall 1e-9 in
  Printf.printf
    "\nclosed loop: %d drivers x depth-%d pipeline, %.1f s: %d warm requests (%.0f requests/s)\n"
    drivers depth wall total_a rps;
  (* Phase B — open loop: [clients] connections spread over the driver
     domains, sends scheduled at a fixed arrival rate (0.7x the closed-loop
     capacity), traffic mixed 2% sleep (non-cacheable), 5% cold synth
     (unique seeds), the rest warm. *)
  let offered = 0.7 *. rps in
  let phase_b_s = if !vectors <= 25 then 1.5 else 3.0 in
  let cold_seed = Atomic.make 100_000 in
  let per_driver = max 1 (clients / drivers) in
  let run_driver k =
    let module Q = Queue in
    let conns =
      Array.init per_driver (fun _ ->
          let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX sock);
          (fd, Buffer.create 4096, (Q.create () : (int * float) Q.t)))
    in
    let warm = ref [] and cold = ref [] and sleeps = ref [] in
    let errs = Hashtbl.create 8 in
    let sent = ref 0 and completed = ref 0 and dropped = ref 0 in
    let interval = float_of_int drivers /. Float.max offered 1. in
    let t_start = Unix.gettimeofday () in
    let t_end = t_start +. phase_b_s in
    let next_send = ref (t_start +. (interval *. float_of_int k /. float_of_int drivers)) in
    let rr = ref 0 in
    let mix = ref 0 in
    let on_line line (kind, t_send) =
      incr completed;
      let lat = (Unix.gettimeofday () -. t_send) *. 1000. in
      (match kind with
      | 0 -> warm := lat :: !warm
      | 1 -> cold := lat :: !cold
      | _ -> sleeps := lat :: !sleeps);
      match extract_error line with
      | Some code ->
          Hashtbl.replace errs code
            (1 + Option.value ~default:0 (Hashtbl.find_opt errs code))
      | None -> ()
    in
    let chunk = Bytes.create 65536 in
    let read_conn (fd, rbuf, pending) =
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
          let from = Buffer.length rbuf in
          Buffer.add_subbytes rbuf chunk 0 n;
          List.iter
            (fun line ->
              match Q.take_opt pending with Some tag -> on_line line tag | None -> ())
            (Ee_serve.Protocol.take_lines rbuf ~from)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | exception Unix.Unix_error _ -> ()
    in
    let send_one now =
      let fd, _, pending = conns.(!rr mod per_driver) in
      incr rr;
      if Q.length pending >= 64 then incr dropped
      else begin
        incr mix;
        let m = !mix in
        let kind, line =
          if m mod 50 = 11 then (2, "{\"cmd\":\"sleep\",\"seconds\":0.002}")
          else if m mod 20 = 3 then
            ( 1,
              Printf.sprintf "{\"cmd\":\"synth\",\"bench\":\"b04\",\"vectors\":%d,\"seed\":%d}"
                !vectors
                (Atomic.fetch_and_add cold_seed 1) )
          else (0, synth_line (List.nth benches (m mod 3)))
        in
        let data = Bytes.of_string (line ^ "\n") in
        let len = Bytes.length data in
        let off = ref 0 in
        (try
           while !off < len do
             off := !off + Unix.write fd data !off (len - !off)
           done
         with Unix.Unix_error _ -> ());
        Q.add (kind, now) pending;
        incr sent
      end
    in
    let fds = Array.to_list (Array.map (fun (fd, _, _) -> fd) conns) in
    let rec loop () =
      let now = Unix.gettimeofday () in
      if now < t_end then begin
        while !next_send <= Unix.gettimeofday () && Unix.gettimeofday () < t_end do
          send_one (Unix.gettimeofday ());
          next_send := !next_send +. interval
        done;
        let now = Unix.gettimeofday () in
        let timeout = Float.max 0. (Float.min (!next_send -. now) 0.02) in
        (match Unix.select fds [] [] timeout with
        | readable, _, _ ->
            Array.iter (fun ((fd, _, _) as c) -> if List.mem fd readable then read_conn c) conns
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        loop ()
      end
    in
    loop ();
    (* Drain what is still outstanding, bounded. *)
    let drain_deadline = Unix.gettimeofday () +. 2.0 in
    let outstanding () = Array.exists (fun (_, _, p) -> not (Q.is_empty p)) conns in
    while outstanding () && Unix.gettimeofday () < drain_deadline do
      match Unix.select fds [] [] 0.05 with
      | readable, _, _ ->
          Array.iter (fun ((fd, _, _) as c) -> if List.mem fd readable then read_conn c) conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    let unanswered = Array.fold_left (fun a (_, _, p) -> a + Q.length p) 0 conns in
    Array.iter (fun (fd, _, _) -> try Unix.close fd with Unix.Unix_error _ -> ()) conns;
    {
      lr_sent = !sent;
      lr_completed = !completed;
      lr_dropped = !dropped;
      lr_unanswered = unanswered;
      lr_warm = !warm;
      lr_cold = !cold;
      lr_sleep = !sleeps;
      lr_errs = Hashtbl.fold (fun k v acc -> (k, v) :: acc) errs [];
    }
  in
  let results = Ee_util.Pool.run ~domains:drivers run_driver (List.init drivers Fun.id) in
  let sum f = List.fold_left (fun a r -> a + f r) 0 results in
  let gather f = List.concat_map f results in
  let sent = sum (fun r -> r.lr_sent)
  and completed = sum (fun r -> r.lr_completed)
  and dropped = sum (fun r -> r.lr_dropped)
  and unanswered = sum (fun r -> r.lr_unanswered) in
  let warm_all = Array.of_list (gather (fun r -> r.lr_warm)) in
  let cold_all = Array.of_list (gather (fun r -> r.lr_cold)) in
  let sleep_all = Array.of_list (gather (fun r -> r.lr_sleep)) in
  let err_totals =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun r ->
        List.iter
          (fun (code, n) ->
            Hashtbl.replace tbl code (n + Option.value ~default:0 (Hashtbl.find_opt tbl code)))
          r.lr_errs)
      results;
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  let pct a q = if Array.length a = 0 then 0. else Ee_util.Stats.percentile a q in
  let pct_obj a =
    if Array.length a = 0 then Json.Null
    else
      Json.Obj
        [
          ("n", Json.Int (Array.length a));
          ("p50", Json.Float (pct a 50.));
          ("p90", Json.Float (pct a 90.));
          ("p99", Json.Float (pct a 99.));
        ]
  in
  Printf.printf
    "open loop: %d clients, %.0f requests/s offered for %.1f s: %d sent, %d completed, %d capped, %d unanswered\n"
    clients offered phase_b_s sent completed dropped unanswered;
  Printf.printf "  warm  p50/p90/p99: %.3f / %.3f / %.3f ms (%d)\n" (pct warm_all 50.)
    (pct warm_all 90.) (pct warm_all 99.) (Array.length warm_all);
  if Array.length cold_all > 0 then
    Printf.printf "  cold  p50/p90/p99: %.2f / %.2f / %.2f ms (%d)\n" (pct cold_all 50.)
      (pct cold_all 90.) (pct cold_all 99.) (Array.length cold_all);
  List.iter (fun (code, n) -> Printf.printf "  %-18s %d\n" code n) err_totals;
  (* Scrape server-side tier/shard/cache accounting. *)
  let stats_resp = Client.request_line c "{\"cmd\":\"stats\"}" in
  let stats_json = match Json.parse stats_resp with Ok j -> j | Error _ -> Json.Null in
  let member path =
    List.fold_left (fun acc name -> Option.bind acc (Json.member name)) (Some stats_json) path
  in
  let stat_int path = Option.value ~default:0 (Option.bind (member path) Json.to_int) in
  let shard_requests =
    match member [ "result"; "shards"; "requests" ] with
    | Some (Json.List l) -> List.filter_map Json.to_int l
    | _ -> []
  in
  let tier_counts =
    List.map
      (fun t -> (t, stat_int [ "result"; "tiers"; t ]))
      [ "ok"; "throttled"; "shed"; "overloaded" ]
  in
  let hits = stat_int [ "result"; "cache"; "hits" ]
  and misses = stat_int [ "result"; "cache"; "misses" ] in
  Printf.printf "cache: %d hits / %d misses; tiers:%s; shard requests:%s\n" hits misses
    (String.concat "" (List.map (fun (t, n) -> Printf.sprintf " %s=%d" t n) tier_counts))
    (String.concat "" (List.map (Printf.sprintf " %d") shard_requests));
  ignore (Client.request_line c "{\"cmd\":\"shutdown\"}");
  Client.close c;
  Domain.join server;
  (* Gates. *)
  let cores = Domain.recommended_domain_count () in
  let gate_enforced = cores >= 2 in
  let min_speedup =
    List.fold_left (fun acc (_, _, _, s) -> Float.min acc s) infinity latency_rows
  in
  let p99_factor = 100. and p99_floor_ms = 25. in
  let warm_p50 = pct warm_all 50. and warm_p99 = pct warm_all 99. in
  let p99_ok =
    Array.length warm_all = 0
    || not (warm_p99 > p99_factor *. warm_p50 && warm_p99 > p99_floor_ms)
  in
  let shard_balance =
    let total = List.fold_left ( + ) 0 shard_requests in
    if total = 0 || shard_requests = [] then None
    else
      let mean = float_of_int total /. float_of_int (List.length shard_requests) in
      Some (float_of_int (List.fold_left min max_int shard_requests) /. mean)
  in
  let starved = match shard_balance with Some b -> b < 0.1 | None -> false in
  let json =
    Json.Obj
      [
        ("vectors", Json.Int !vectors);
        ("seed", Json.Int seed);
        ("domains", Json.Int cfg.Server.domains);
        ("shards", Json.Int shards);
        ("cores", Json.Int cores);
        ("gate_enforced", Json.Bool gate_enforced);
        ( "latency",
          Json.List
            (List.map
               (fun (id, cold, warm, s) ->
                 Json.Obj
                   [
                     ("bench", Json.String id);
                     ("cold_ms", Json.Float cold);
                     ("warm_p50_ms", Json.Float warm);
                     ("speedup", Json.Float s);
                   ])
               latency_rows) );
        ("min_warm_speedup", Json.Float min_speedup);
        ( "import",
          Json.Obj
            [
              ("texts", Json.Int (Array.length import_cold));
              ("vectors", Json.Int import_vectors);
              ( "layers",
                Json.List
                  (List.map
                     (fun (name, ms, words) ->
                       Json.Obj
                         [
                           ("layer", Json.String name);
                           ("ms", Json.Float ms);
                           ("minor_words", Json.Float words);
                         ])
                     layers) );
              ( "layers_total_ms",
                Json.Float (List.fold_left (fun acc (_, ms, _) -> acc +. ms) 0. layers) );
              ( "cold_ms",
                Json.Obj
                  [
                    ("p50", Json.Float (Ee_util.Stats.percentile import_cold 50.));
                    ("p90", Json.Float (Ee_util.Stats.percentile import_cold 90.));
                    ("max", Json.Float (Array.fold_left Float.max 0. import_cold));
                  ] );
            ] );
        ("concurrent_clients", Json.Int drivers);
        ("warm_requests_per_s", Json.Float rps);
        ( "closed_loop",
          Json.Obj
            [
              ("connections", Json.Int drivers);
              ("pipeline_depth", Json.Int depth);
              ("duration_s", Json.Float wall);
              ("completed", Json.Int total_a);
              ("warm_requests_per_s", Json.Float rps);
            ] );
        ( "load",
          Json.Obj
            [
              ("clients", Json.Int clients);
              ("drivers", Json.Int drivers);
              ("offered_rps", Json.Float offered);
              ("duration_s", Json.Float phase_b_s);
              ("sent", Json.Int sent);
              ("completed", Json.Int completed);
              ("capped", Json.Int dropped);
              ("unanswered", Json.Int unanswered);
              ("errors", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) err_totals));
              ("warm_ms", pct_obj warm_all);
              ("cold_ms", pct_obj cold_all);
              ("sleep_ms", pct_obj sleep_all);
            ] );
        ("tiers", Json.Obj (List.map (fun (t, n) -> (t, Json.Int n)) tier_counts));
        ("shard_requests", Json.List (List.map (fun n -> Json.Int n) shard_requests));
        ( "shard_balance",
          match shard_balance with Some b -> Json.Float b | None -> Json.Null );
        ( "p99_gate",
          Json.Obj
            [
              ("enforced", Json.Bool gate_enforced);
              ("factor", Json.Float p99_factor);
              ("floor_ms", Json.Float p99_floor_ms);
              ("warm_p50_ms", Json.Float warm_p50);
              ("warm_p99_ms", Json.Float warm_p99);
              ("passed", Json.Bool p99_ok);
            ] );
        ("cache_hits", Json.Int hits);
        ("cache_misses", Json.Int misses);
      ]
  in
  let oc = open_out "BENCH_serve.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote BENCH_serve.json (min warm speedup %.0fx, warm p99 %.3f ms)\n"
    min_speedup warm_p99;
  if min_speedup < 10. then begin
    Printf.printf "FAIL: warm path less than 10x faster than cold\n";
    exit 1
  end;
  if gate_enforced && not p99_ok then begin
    Printf.printf "FAIL: warm p99 %.3f ms exceeds %.0fx warm p50 %.3f ms (floor %.0f ms)\n"
      warm_p99 p99_factor warm_p50 p99_floor_ms;
    exit 1
  end;
  if gate_enforced && starved then begin
    Printf.printf "FAIL: shard starvation (balance %.3f < 0.1)\n"
      (Option.value ~default:0. shard_balance);
    exit 1
  end;
  if not gate_enforced then
    Printf.printf "(single-core machine: p99/starvation gates recorded but not enforced)\n"

(* Chaos: a real supervised fleet (bin/ee_fleet spawned fork+exec — safe
   with live domains, unlike a bare fork) takes closed-loop load through
   the failover client while the conductor SIGKILLs children mid-run,
   then a tier entry is truncated and the restarted child must quarantine
   it instead of serving it.  Correctness gates (zero wrong replies, zero
   unaccounted requests, quarantine observed, clean drain) are always
   enforced; the availability floor and recovery bound only on >=2-core
   machines, like the other serve gates.  Merges a "chaos" section into
   BENCH_serve.json. *)

type chaos_load = {
  ch_sent : int;
  ch_ok : int;
  ch_wrong : (string * string) list;  (* bench, offending response line *)
  ch_errs : (string * int) list;  (* structured error code -> count *)
  ch_failed : (string * int) list;  (* Fleet_client.Failed kind -> count *)
  ch_lat : float list;
}

type chaos_outcome =
  | Chaos_load of chaos_load
  | Chaos_kills of (int * int * float) list  (* slot, old pid, recovery_s (nan = never) *)

let print_chaos () =
  section "Chaos: supervised ee_fleet under SIGKILL + tier-corruption load";
  let module Client = Ee_serve.Client in
  let module Fleet_client = Ee_serve.Fleet_client in
  let module Json = Ee_export.Json in
  let exe =
    match Sys.getenv_opt "EE_FLEET_EXE" with
    | Some p -> p
    | None ->
        let guess =
          Filename.concat (Filename.dirname Sys.executable_name) "../bin/ee_fleet.exe"
        in
        if Sys.file_exists guess then guess else "ee_fleet"
  in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ee_chaos_%d" (Unix.getpid ()))
  in
  let mkdir d = try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> () in
  mkdir dir;
  let tier = Filename.concat dir "tier" in
  mkdir tier;
  let prefix = Filename.concat dir "s" in
  let ep slot : Ee_serve.Server.address = `Unix (Printf.sprintf "%s.%d" prefix slot) in
  let fleet_log = Filename.concat dir "fleet.log" in
  let log_fd = Unix.openfile fleet_log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let backoff_base = 0.3 in
  let fleet_pid =
    Unix.create_process exe
      [|
        exe; "-n"; "2"; "--socket"; prefix; "--tier"; tier; "--jobs"; "1";
        "--backoff-base"; string_of_float backoff_base; "--probe-interval"; "0.5";
        "--grace"; "5";
      |]
      Unix.stdin Unix.stdout log_fd
  in
  Unix.close log_fd;
  Printf.printf "fleet: %s -n 2 --tier %s (supervisor pid %d, log %s)\n" exe tier
    fleet_pid fleet_log;
  let health_of addr =
    match Client.connect ~recv_timeout_s:2. addr with
    | exception _ -> None
    | c ->
        let r =
          match Client.request_line c "{\"cmd\":\"health\"}" with
          | line -> (
              match Json.parse line with
              | Ok j when Json.member "status" j = Some (Json.String "ok") ->
                  Json.member "result" j
              | _ -> None)
          | exception _ -> None
        in
        Client.close c;
        r
  in
  let pid_of addr = Option.bind (health_of addr) (fun h -> Option.bind (Json.member "pid" h) Json.to_int) in
  let quarantined_of addr =
    Option.bind (health_of addr) (fun h ->
        Option.bind (Json.member "cache" h) (fun c ->
            Option.bind (Json.member "quarantined" c) Json.to_int))
  in
  (* Wait for both children to come up. *)
  List.iter
    (fun slot ->
      let c = Client.connect ~retries:100 ~recv_timeout_s:5. (ep slot) in
      ignore (Client.request_line c "{\"cmd\":\"ping\"}");
      Client.close c)
    [ 0; 1 ];
  let benches = [ "b01"; "b02"; "b03" ] in
  let synth_line id =
    Printf.sprintf "{\"cmd\":\"synth\",\"bench\":%S,\"vectors\":%d,\"seed\":%d}" id
      !vectors seed
  in
  let result_of line =
    match Json.parse line with
    | Ok j when Json.member "status" j = Some (Json.String "ok") ->
        Option.map Json.to_string (Json.member "result" j)
    | _ -> None
  in
  (* Warm-up: compute the expected payload per bench on child 0 and check
     child 1 independently agrees (synthesis is deterministic; child 1
     may serve it from the shared tier child 0 just wrote). *)
  let expected =
    let c0 = Client.connect ~retries:10 ~recv_timeout_s:120. (ep 0) in
    let c1 = Client.connect ~retries:10 ~recv_timeout_s:120. (ep 1) in
    let exp =
      List.map
        (fun id ->
          let r0 = result_of (Client.request_line c0 (synth_line id)) in
          let r1 = result_of (Client.request_line c1 (synth_line id)) in
          match (r0, r1) with
          | Some a, Some b when a = b -> (id, a)
          | Some a, Some b ->
              Printf.printf "FAIL: children disagree on %s:\n  %s\n  %s\n" id a b;
              exit 1
          | _ ->
              Printf.printf "FAIL: warm-up request for %s failed\n" id;
              exit 1)
        benches
    in
    Client.close c0;
    Client.close c1;
    exp
  in
  Printf.printf "warm-up: %d benches agree across both children\n" (List.length expected);
  let load_s = if !vectors <= 25 then 6.0 else 10.0 in
  let t0 = Unix.gettimeofday () in
  let t_end = t0 +. load_s in
  let sleep_until t =
    let d = t -. Unix.gettimeofday () in
    if d > 0. then Unix.sleepf d
  in
  (* The conductor: SIGKILL one child at 25% and the other at 55% of the
     load window, then measure how long until a *new* pid answers health
     on that endpoint. *)
  let conduct () =
    List.map
      (fun (frac, slot) ->
        sleep_until (t0 +. (frac *. load_s));
        match pid_of (ep slot) with
        | None -> (slot, -1, Float.nan)
        | Some pid ->
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            let tk = Unix.gettimeofday () in
            let deadline = tk +. 10. in
            let rec poll () =
              if Unix.gettimeofday () > deadline then Float.nan
              else
                match pid_of (ep slot) with
                | Some pid' when pid' <> pid -> Unix.gettimeofday () -. tk
                | _ ->
                    Unix.sleepf 0.05;
                    poll ()
            in
            (slot, pid, poll ()))
      [ (0.25, 0); (0.55, 1) ]
  in
  (* A load driver: closed-loop requests through the failover client.
     Every request ends as exactly one of ok / wrong / structured error /
     Failed — a silently dropped reply would show up as unaccounted. *)
  let run_load k =
    let policy =
      {
        Fleet_client.default_policy with
        Fleet_client.max_attempts = 8;
        base_backoff_s = 0.05;
        max_backoff_s = 0.5;
        recv_timeout_s = Some 10.;
      }
    in
    let fc = Fleet_client.create ~policy ~seed:(1000 + k) [ ep (k mod 2); ep ((k + 1) mod 2) ] in
    let sent = ref 0 and ok = ref 0 in
    let wrong = ref [] and lat = ref [] in
    let errs = Hashtbl.create 8 and failed = Hashtbl.create 8 in
    let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
    let i = ref 0 in
    while Unix.gettimeofday () < t_end do
      let bench = List.nth benches (!i mod 3) in
      incr i;
      incr sent;
      let t_s = Unix.gettimeofday () in
      (match Fleet_client.request_line fc (synth_line bench) with
      | line -> (
          lat := ((Unix.gettimeofday () -. t_s) *. 1000.) :: !lat;
          match result_of line with
          | Some r when r = List.assoc bench expected -> incr ok
          | Some _ -> wrong := (bench, line) :: !wrong
          | None -> (
              match extract_error line with
              | Some code -> bump errs code
              | None -> bump errs "unparseable"))
      | exception Fleet_client.Failed f ->
          bump failed
            (match f with
            | Fleet_client.Rejected { code; _ } -> "rejected:" ^ code
            | Fleet_client.Unavailable _ -> "unavailable")
      | exception e -> bump failed (Printexc.to_string e))
    done;
    Fleet_client.close fc;
    {
      ch_sent = !sent;
      ch_ok = !ok;
      ch_wrong = !wrong;
      ch_errs = Hashtbl.fold (fun k v acc -> (k, v) :: acc) errs [];
      ch_failed = Hashtbl.fold (fun k v acc -> (k, v) :: acc) failed [];
      ch_lat = !lat;
    }
  in
  let outcomes =
    Ee_util.Pool.run ~domains:3
      (fun k -> if k = 0 then Chaos_kills (conduct ()) else Chaos_load (run_load k))
      [ 0; 1; 2 ]
  in
  let kills =
    List.concat_map (function Chaos_kills l -> l | Chaos_load _ -> []) outcomes
  in
  let loads =
    List.filter_map (function Chaos_load l -> Some l | Chaos_kills _ -> None) outcomes
  in
  let sum f = List.fold_left (fun a l -> a + f l) 0 loads in
  let sent = sum (fun l -> l.ch_sent) and ok = sum (fun l -> l.ch_ok) in
  let wrong = List.concat_map (fun l -> l.ch_wrong) loads in
  let merge_counts field =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun l ->
        List.iter
          (fun (k, v) -> Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
          (field l))
      loads;
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  let errs = merge_counts (fun l -> l.ch_errs) in
  let failed = merge_counts (fun l -> l.ch_failed) in
  let err_total = List.fold_left (fun a (_, n) -> a + n) 0 errs in
  let failed_total = List.fold_left (fun a (_, n) -> a + n) 0 failed in
  let unaccounted = sent - (ok + List.length wrong + err_total + failed_total) in
  let lat_all = Array.of_list (List.concat_map (fun l -> l.ch_lat) loads) in
  let pct a q = if Array.length a = 0 then 0. else Ee_util.Stats.percentile a q in
  let availability =
    if sent = 0 then 0. else float_of_int ok /. float_of_int sent
  in
  Printf.printf
    "load: %.1f s, %d sent, %d ok (%.2f%% availability), %d wrong, %d errors, %d failed, %d unaccounted\n"
    load_s sent ok (100. *. availability) (List.length wrong) err_total failed_total
    unaccounted;
  Printf.printf "  latency p50/p99: %.2f / %.2f ms\n" (pct lat_all 50.) (pct lat_all 99.);
  List.iter (fun (c, n) -> Printf.printf "  error %-18s %d\n" c n) errs;
  List.iter (fun (c, n) -> Printf.printf "  failed %-17s %d\n" c n) failed;
  List.iter
    (fun (slot, pid, rec_s) ->
      if Float.is_nan rec_s then
        Printf.printf "kill: child %d (pid %d) NOT recovered within 10 s\n" slot pid
      else Printf.printf "kill: child %d (pid %d) recovered in %.2f s\n" slot pid rec_s)
    kills;
  (* Corruption: truncate one tier entry, SIGKILL child 0 so its restart
     preloads the tier, then the corrupt entry must be quarantined — and
     every bench must still answer correctly. *)
  let is_hex s =
    String.length s = 32
    && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s
  in
  let entries =
    Sys.readdir tier |> Array.to_list |> List.filter is_hex |> List.sort compare
  in
  let corrupted =
    match entries with
    | [] -> None
    | name :: _ ->
        let path = Filename.concat tier name in
        let size = (Unix.stat path).Unix.st_size in
        Unix.truncate path (size - (size / 3));
        Printf.printf "corruption: truncated %s (%d -> %d bytes)\n" name size
          (size - (size / 3));
        Some name
  in
  let recovery3 =
    match pid_of (ep 0) with
    | None -> Float.nan
    | Some pid ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        let tk = Unix.gettimeofday () in
        let deadline = tk +. 10. in
        let rec poll () =
          if Unix.gettimeofday () > deadline then Float.nan
          else
            match pid_of (ep 0) with
            | Some pid' when pid' <> pid -> Unix.gettimeofday () -. tk
            | _ ->
                Unix.sleepf 0.05;
                poll ()
        in
        poll ()
  in
  let quarantined = Option.value ~default:0 (quarantined_of (ep 0)) in
  let post_wrong =
    let c = Client.connect ~retries:10 ~recv_timeout_s:120. (ep 0) in
    let bad =
      List.filter
        (fun (id, exp) ->
          match result_of (Client.request_line c (synth_line id)) with
          | Some r -> r <> exp
          | None -> true)
        expected
    in
    Client.close c;
    List.map fst bad
  in
  Printf.printf
    "corruption: child 0 restarted in %.2f s, quarantined %d entries, %d wrong post-restart replies\n"
    recovery3 quarantined (List.length post_wrong);
  (* Drain the fleet and wait for a clean supervisor exit. *)
  (try Unix.kill fleet_pid Sys.sigterm with Unix.Unix_error _ -> ());
  let clean_exit =
    let deadline = Unix.gettimeofday () +. 15. in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] fleet_pid with
      | 0, _ ->
          if Unix.gettimeofday () > deadline then false
          else begin
            Unix.sleepf 0.05;
            wait ()
          end
      | _, Unix.WEXITED 0 -> true
      | _, _ -> false
      | exception Unix.Unix_error _ -> false
    in
    wait ()
  in
  Printf.printf "drain: supervisor exit %s\n" (if clean_exit then "clean" else "DIRTY");
  let cores = Domain.recommended_domain_count () in
  let gate_enforced = cores >= 2 in
  let availability_floor = 0.95 in
  let recovery_bound_s = 5.0 in
  let recoveries = List.map (fun (_, _, r) -> r) kills @ [ recovery3 ] in
  let recovered_ok =
    List.for_all (fun r -> not (Float.is_nan r) && r <= recovery_bound_s) recoveries
  in
  let kill_json =
    Json.List
      (List.map
         (fun (slot, pid, rec_s) ->
           Json.Obj
             [
               ("slot", Json.Int slot);
               ("pid", Json.Int pid);
               ( "recovery_s",
                 if Float.is_nan rec_s then Json.Null else Json.Float rec_s );
             ])
         kills)
  in
  let chaos_json =
    Json.Obj
      [
        ("children", Json.Int 2);
        ("vectors", Json.Int !vectors);
        ("seed", Json.Int seed);
        ("cores", Json.Int cores);
        ("gate_enforced", Json.Bool gate_enforced);
        ("load_s", Json.Float load_s);
        ("backoff_base_s", Json.Float backoff_base);
        ("sent", Json.Int sent);
        ("ok", Json.Int ok);
        ("wrong", Json.Int (List.length wrong));
        ("unaccounted", Json.Int unaccounted);
        ("errors", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) errs));
        ("failed", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) failed));
        ("availability", Json.Float availability);
        ("availability_floor", Json.Float availability_floor);
        ( "latency_ms",
          if Array.length lat_all = 0 then Json.Null
          else
            Json.Obj
              [
                ("n", Json.Int (Array.length lat_all));
                ("p50", Json.Float (pct lat_all 50.));
                ("p99", Json.Float (pct lat_all 99.));
              ] );
        ("kills", kill_json);
        ("recovery_bound_s", Json.Float recovery_bound_s);
        ( "corruption",
          Json.Obj
            [
              ( "entry",
                match corrupted with Some n -> Json.String n | None -> Json.Null );
              ( "restart_recovery_s",
                if Float.is_nan recovery3 then Json.Null else Json.Float recovery3 );
              ("quarantined", Json.Int quarantined);
              ("wrong_after_restart", Json.Int (List.length post_wrong));
            ] );
        ("clean_exit", Json.Bool clean_exit);
      ]
  in
  let merged =
    let existing =
      match In_channel.with_open_text "BENCH_serve.json" In_channel.input_all with
      | text -> (match Json.parse text with Ok j -> Some j | Error _ -> None)
      | exception Sys_error _ -> None
    in
    match existing with
    | Some (Json.Obj fields) ->
        Json.Obj
          (List.filter (fun (k, _) -> k <> "chaos") fields @ [ ("chaos", chaos_json) ])
    | _ -> Json.Obj [ ("chaos", chaos_json) ]
  in
  let oc = open_out "BENCH_serve.json" in
  output_string oc (Json.to_string merged);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote BENCH_serve.json chaos section\n";
  let fail msg =
    Printf.printf "FAIL: %s\n" msg;
    exit 1
  in
  List.iter
    (fun (bench, line) -> Printf.printf "  wrong reply for %s: %s\n" bench line)
    wrong;
  if wrong <> [] then fail "wrong replies under chaos load";
  if post_wrong <> [] then
    fail
      (Printf.sprintf "wrong replies after corruption restart (%s)"
         (String.concat ", " post_wrong));
  if unaccounted <> 0 then
    fail (Printf.sprintf "%d requests silently dropped" unaccounted);
  if corrupted <> None && quarantined < 1 then
    fail "corrupt tier entry was not quarantined";
  if not clean_exit then fail "supervisor did not drain cleanly on SIGTERM";
  if gate_enforced then begin
    if availability < availability_floor then
      fail
        (Printf.sprintf "availability %.4f below floor %.2f" availability
           availability_floor);
    if not recovered_ok then fail "a killed child did not recover within the bound"
  end
  else
    Printf.printf
      "(single-core machine: availability/recovery gates recorded but not enforced)\n"

(* Fault-injection campaigns: sweep the standard fault list over every
   ITC99 benchmark's EE netlist and check that nothing silently mis-computes
   under the adversarial delay schedules.  The dangerous class is
   wrong-output; the v-rail stuck-ats that land there are precisely the
   faults LEDR encoding cannot witness locally.  BENCH_faults.json records,
   per benchmark, the fault count, the four classes and the MD5 of the JSON
   report, which a faster campaign must reproduce exactly, plus the
   campaign's wall time and cost per fault, which it need not. *)

let print_faults () =
  section "Robustness: fault-injection campaigns (Ee_fault.Campaign)";
  let waves = 16 in
  Printf.printf "(%d waves per fault, seed %d; faults per Fault.enumerate)\n\n" waves seed;
  let rows =
    List.map
      (fun (b : Ee_bench_circuits.Itc99.benchmark) ->
        let id = b.Ee_bench_circuits.Itc99.id in
        let a = Ee_report.Pipeline.build b in
        let t0 = Unix.gettimeofday () in
        let r =
          Ee_fault.Campaign.run ~waves ~seed ~bench:id a.Ee_report.Pipeline.pl_ee
            a.Ee_report.Pipeline.netlist
        in
        let wall = Unix.gettimeofday () -. t0 in
        let faults = List.length r.Ee_fault.Campaign.records in
        Printf.printf "%s  %.3f s, %.1f us/fault\n%!" (Ee_fault.Campaign.summary_string r) wall
          (wall *. 1e6 /. float_of_int faults);
        Printf.sprintf
          "    { \"bench\": \"%s\", \"faults\": %d, \"masked\": %d, \"detected\": %d, \
           \"deadlock\": %d, \"wrong_output\": %d, \"report_md5\": \"%s\", \"wall_s\": %.3f, \
           \"us_per_fault\": %.1f }"
          id faults r.Ee_fault.Campaign.masked r.Ee_fault.Campaign.detected
          r.Ee_fault.Campaign.deadlock r.Ee_fault.Campaign.wrong_output
          (Digest.to_hex (Digest.string (Ee_fault.Campaign.to_json r)))
          wall
          (wall *. 1e6 /. float_of_int faults))
      Ee_bench_circuits.Itc99.all
  in
  let oc = open_out "BENCH_faults.json" in
  Printf.fprintf oc
    "{\n  \"waves\": %d,\n  \"seed\": %d,\n  \"cores\": %d,\n  \"campaigns\": [\n%s\n  ]\n}\n"
    waves seed (Domain.recommended_domain_count ()) (String.concat ",\n" rows);
  close_out oc;
  Printf.printf "wrote BENCH_faults.json\n";
  let b01 = Ee_report.Pipeline.build (Ee_bench_circuits.Itc99.find "b01") in
  let pl = b01.Ee_report.Pipeline.pl_ee in
  let gates = Array.length (Ee_phased.Pl.gates pl) in
  let audits = Ee_fault.Campaign.token_audit pl ~steps:(50 * gates) ~seed in
  let count p = List.length (List.filter (fun a -> p a.Ee_fault.Campaign.verdict) audits) in
  Printf.printf "b01 token audit: %d corruptions -> %d deadlocked, %d unsafe, %d survived\n"
    (List.length audits)
    (count (function Ee_fault.Campaign.Audit_dead _ -> true | _ -> false))
    (count (function Ee_fault.Campaign.Audit_unsafe _ -> true | _ -> false))
    (count (( = ) Ee_fault.Campaign.Audit_live))

(* Corpus sweep: push a population of circuits the repo did not generate
   through the whole import pipeline — parse (BLIF / ASCII AIGER / binary
   AIGER) -> delay-driven remap -> BDD equivalence proof -> PL mapping ->
   EE synthesis -> simulation — and record the failure taxonomy, mapping
   quality and EE-speedup distribution in BENCH_corpus.json.

   Gates (exit 1):
   - every generated entry must land in the "ok" taxonomy class (a parse,
     map or equivalence failure on our own output is a bug);
   - entries loaded from --corpus-dir must never be "not_equivalent" or
     "map_failed" (foreign files may legitimately fail to parse);
   - on every ITC99 bench, the [`Delay] cut mapper's depth must not exceed
     {!Ee_rtl.Techmap}'s (the old mapper), and where checked the two must
     be formally equivalent. *)

let print_corpus ?dir ~fast () =
  section "Corpus: arbitrary-netlist frontend sweep (parse -> remap -> EE)";
  let module C = Ee_frontend.Corpus in
  let module Netlist = Ee_netlist.Netlist in
  let n = 120 in
  let generated = C.generate ~seed ~n in
  let loaded = match dir with None -> [] | Some d -> C.load_dir d in
  let counts = Hashtbl.create 8 in
  let bump c =
    Hashtbl.replace counts c (1 + Option.value ~default:0 (Hashtbl.find_opt counts c))
  in
  let hard_failures = ref [] in
  let speedups = ref [] in
  let mapped_depths = ref [] in
  let ee_vectors = if fast then 25 else !vectors in
  let measured = ref 0 in
  let sweep ~generated_entry entries =
    List.iter
      (fun (e : C.entry) ->
        let o = C.check e in
        bump (C.outcome_class o);
        match o with
        | C.Passed { o_mapped; o_mapped_luts; o_mapped_depth; _ } ->
            mapped_depths := float_of_int o_mapped_depth :: !mapped_depths;
            (* EE measurement on the remapped netlist; directory entries can
               be arbitrarily large, so bound the simulated population. *)
            if o_mapped_luts <= 400 && Netlist.dff_count o_mapped < 60 then begin
              let pl = Ee_phased.Pl.of_netlist o_mapped in
              let pl_ee, _ = Ee_core.Synth.run pl in
              let base = Ee_sim.Sim.run_random pl ~vectors:ee_vectors ~seed in
              let ee = Ee_sim.Sim.run_random pl_ee ~vectors:ee_vectors ~seed in
              incr measured;
              speedups :=
                Ee_util.Stats.percent_change ~before:base.Ee_sim.Sim.avg_settle_time
                  ~after:ee.Ee_sim.Sim.avg_settle_time
                :: !speedups
            end
        | C.Parse_failed msg ->
            if generated_entry then
              hard_failures := Printf.sprintf "%s: parse: %s" e.C.e_name msg :: !hard_failures
            else Printf.printf "  (foreign) %s failed to parse: %s\n" e.C.e_name msg
        | C.Map_failed msg ->
            hard_failures := Printf.sprintf "%s: map: %s" e.C.e_name msg :: !hard_failures
        | C.Not_equivalent msg ->
            hard_failures :=
              Printf.sprintf "%s: NOT EQUIVALENT: %s" e.C.e_name msg :: !hard_failures)
      entries
  in
  sweep ~generated_entry:true generated;
  sweep ~generated_entry:false loaded;
  let total = List.length generated + List.length loaded in
  let count c = Option.value ~default:0 (Hashtbl.find_opt counts c) in
  Printf.printf
    "%d circuits (%d generated, %d from disk): %d ok, %d parse_failed, %d map_failed, %d \
     not_equivalent\n"
    total (List.length generated) (List.length loaded) (count "ok") (count "parse_failed")
    (count "map_failed") (count "not_equivalent");
  let pct a p = if Array.length a = 0 then 0. else Ee_util.Stats.percentile a p in
  let sp = Array.of_list !speedups in
  let dp = Array.of_list !mapped_depths in
  Printf.printf
    "EE speedup over %d simulated circuits (%d vectors): p10 %.1f%%  median %.1f%%  p90 \
     %.1f%%\n"
    !measured ee_vectors (pct sp 10.) (pct sp 50.) (pct sp 90.);
  Printf.printf "mapped depth: median %.0f  max %.0f\n" (pct dp 50.) (pct dp 100.);
  (* ITC99: the delay-driven cut mapper against the old greedy mapper. *)
  let itc =
    List.filter
      (fun (b : Ee_bench_circuits.Itc99.benchmark) ->
        not (fast && List.mem b.Ee_bench_circuits.Itc99.id [ "b14"; "b15" ]))
      Ee_bench_circuits.Itc99.all
  in
  let t =
    Ee_util.Table.create
      ~headers:[ "Benchmark"; "Techmap depth"; "Delay-cut depth"; "LUTs"; "Equiv" ]
  in
  let itc_rows =
    List.map
      (fun (b : Ee_bench_circuits.Itc99.benchmark) ->
        let id = b.Ee_bench_circuits.Itc99.id in
        let d = b.Ee_bench_circuits.Itc99.build () in
        let tm = Ee_rtl.Techmap.run_rtl d in
        let dl = Ee_rtl.Cutmap.run_rtl ~mode:Ee_rtl.Cutmap.Delay d in
        let td = Netlist.depth tm and dd = Netlist.depth dl in
        (* BDD equivalence is exponential in the worst case; prove the small
           benches, spot-check the processors by depth only. *)
        let checked = Netlist.lut_count tm <= 300 in
        let equiv = (not checked) || Ee_netlist.Equiv.is_equivalent tm dl in
        if dd > td then
          hard_failures :=
            Printf.sprintf "%s: delay-cut depth %d > techmap depth %d" id dd td
            :: !hard_failures;
        if not equiv then
          hard_failures :=
            Printf.sprintf "%s: delay-cut mapping not equivalent to techmap" id
            :: !hard_failures;
        Ee_util.Table.add_row t
          [
            id;
            string_of_int td;
            string_of_int dd;
            string_of_int (Netlist.lut_count dl);
            (if not checked then "(depth only)" else if equiv then "proved" else "FAILED");
          ];
        Printf.sprintf
          "    {\"id\": %S, \"techmap_depth\": %d, \"delay_depth\": %d, \"luts\": %d, \
           \"equiv_checked\": %b}"
          id td dd (Netlist.lut_count dl) checked)
      itc
  in
  Ee_util.Table.print t;
  let json =
    Printf.sprintf
      "{\n\
      \  \"circuits\": %d,\n\
      \  \"generated\": %d,\n\
      \  \"loaded\": %d,\n\
      \  \"seed\": %d,\n\
      \  \"vectors\": %d,\n\
      \  \"taxonomy\": {\"ok\": %d, \"parse_failed\": %d, \"map_failed\": %d, \
       \"not_equivalent\": %d},\n\
      \  \"ee_speedup_percent\": {\"measured\": %d, \"p10\": %.2f, \"p50\": %.2f, \"p90\": \
       %.2f},\n\
      \  \"mapped_depth\": {\"p50\": %.1f, \"max\": %.1f},\n\
      \  \"itc99\": [\n%s\n  ],\n\
      \  \"hard_failures\": %d\n\
       }\n"
      total (List.length generated) (List.length loaded) seed ee_vectors (count "ok")
      (count "parse_failed") (count "map_failed") (count "not_equivalent") !measured
      (pct sp 10.) (pct sp 50.) (pct sp 90.) (pct dp 50.) (pct dp 100.)
      (String.concat ",\n" itc_rows)
      (List.length !hard_failures)
  in
  let oc = open_out "BENCH_corpus.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote BENCH_corpus.json\n";
  if !hard_failures <> [] then begin
    List.iter (fun f -> Printf.printf "FAIL: %s\n" f) !hard_failures;
    exit 1
  end

(* Experiment 18: the CEGIS trigger search against brute-force
   subset enumeration, and shared multi-master triggers on the ITC99
   suite.  Writes BENCH_search.json.

   Gates (exit 1):
   - at arity 6 under the deployed pruning configuration (coverage floor +
     top-k ring) the CEGIS driver must beat brute force wall-clock;
   - searched and brute candidate lists must agree on every function;
   - on every ITC99 bench the shared-trigger period must not exceed the
     per-gate MCR plan's. *)

let print_search ~fast () =
  section "Search: CEGIS trigger synthesis vs brute force (Ext. 18)";
  let module Json = Ee_export.Json in
  let module Driver = Ee_search.Driver in
  let module Select = Ee_search.Search_select in
  let module Cutmap = Ee_rtl.Cutmap in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1e3)
  in
  (* A. Crossover: random functions per arity, both engines, unpruned and
     under the pruning the selection flow actually deploys. *)
  let pr_min = 50. and pr_top = 8 in
  let n_funcs = if fast then 12 else 48 in
  let t =
    Ee_util.Table.create
      ~headers:
        [ "Arity"; "Funcs"; "Brute ms"; "Search ms"; "Brute ms (pruned)"; "Search ms (pruned)"; "Agree" ]
  in
  let crossover_rows = ref [] in
  let disagreements = ref 0 in
  let gate_search_ms = ref infinity and gate_brute_ms = ref 0. in
  List.iter
    (fun arity ->
      let fs =
        Array.init n_funcs (fun i ->
            Ee_logic.Truthtab.random (Ee_util.Prng.create (seed + (1000 * arity) + i)) arity)
      in
      let run_all f = Array.iter (fun tt -> ignore (f tt)) fs in
      (* One timed pass is at the mercy of CPU-frequency bursts on shared
         runners, so: warm both engines up, then interleave repeated passes
         and keep each engine's best — drift hits all four configurations
         alike instead of whichever ran first. *)
      let brute () = run_all Ee_core.Trigger_wide.candidates in
      let search () = run_all Driver.candidates in
      let brute_pr () =
        run_all (Ee_core.Trigger_wide.candidates ~min_coverage:pr_min ~top_k:pr_top)
      in
      let search_pr () =
        run_all (fun tt -> Driver.candidates ~min_coverage:pr_min ~top_k:pr_top tt)
      in
      let probed = ref 0 and bound_pruned = ref 0 in
      (* Warmup doubles as the stats pass. *)
      brute ();
      search ();
      brute_pr ();
      Array.iter
        (fun tt ->
          let _, stats = Driver.search ~min_coverage:pr_min ~top_k:pr_top tt in
          probed := !probed + stats.Driver.probed;
          bound_pruned := !bound_pruned + stats.Driver.bound_pruned)
        fs;
      let brute_ms = ref infinity
      and search_ms = ref infinity
      and brute_pr_ms = ref infinity
      and search_pr_ms = ref infinity in
      for _ = 1 to 3 do
        let (), ms = time brute in
        brute_ms := Float.min !brute_ms ms;
        let (), ms = time search in
        search_ms := Float.min !search_ms ms;
        let (), ms = time brute_pr in
        brute_pr_ms := Float.min !brute_pr_ms ms;
        let (), ms = time search_pr in
        search_pr_ms := Float.min !search_pr_ms ms
      done;
      let brute_ms = !brute_ms
      and search_ms = !search_ms
      and brute_pr_ms = !brute_pr_ms
      and search_pr_ms = !search_pr_ms in
      let agree = Array.for_all Driver.agrees_with_brute fs in
      if not agree then incr disagreements;
      if arity = 6 then begin
        gate_search_ms := search_pr_ms;
        gate_brute_ms := brute_pr_ms
      end;
      Ee_util.Table.add_row t
        [
          string_of_int arity;
          string_of_int n_funcs;
          Printf.sprintf "%.2f" brute_ms;
          Printf.sprintf "%.2f" search_ms;
          Printf.sprintf "%.2f" brute_pr_ms;
          Printf.sprintf "%.2f" search_pr_ms;
          (if agree then "yes" else "NO");
        ];
      crossover_rows :=
        Json.Obj
          [
            ("arity", Json.Int arity);
            ("functions", Json.Int n_funcs);
            ("brute_ms", Json.Float brute_ms);
            ("search_ms", Json.Float search_ms);
            ("brute_pruned_ms", Json.Float brute_pr_ms);
            ("search_pruned_ms", Json.Float search_pr_ms);
            ("probed", Json.Int !probed);
            ("bound_pruned", Json.Int !bound_pruned);
            ("agree", Json.Bool agree);
          ]
        :: !crossover_rows)
    [ 4; 5; 6 ];
  Ee_util.Table.print t;
  let crossover_ok = !gate_search_ms < !gate_brute_ms in
  Printf.printf
    "arity-6 pruned crossover (floor %.0f%%, top-%d): search %.2f ms vs brute %.2f ms (%s)\n"
    pr_min pr_top !gate_search_ms !gate_brute_ms
    (if crossover_ok then "search wins" else "BRUTE WINS");
  (* B. ITC99 shared-trigger periods against the per-gate MCR floor, plus
     the wide-cone coverage summary at LUT-6. *)
  let itc =
    List.filter
      (fun (b : Ee_bench_circuits.Itc99.benchmark) ->
        not (fast && List.mem b.Ee_bench_circuits.Itc99.id [ "b14"; "b15" ]))
      Ee_bench_circuits.Itc99.all
  in
  let t =
    Ee_util.Table.create
      ~headers:
        [
          "Benchmark"; "no-EE"; "MCR"; "Search"; "Trials"; "Groups"; "Wide cones"; "Best cov %";
          "MCR ms"; "Search ms";
        ]
  in
  let lambda_failures = ref [] and plan_ms = ref [] in
  let itc_rows =
    List.map
      (fun (b : Ee_bench_circuits.Itc99.benchmark) ->
        let id = b.Ee_bench_circuits.Itc99.id in
        let a = Ee_report.Pipeline.build b in
        let pl = a.Ee_report.Pipeline.pl in
        (* The MCR floor, then the whole Search plan, which plans the
           same floor again before its shared-trigger trials; each from
           an empty trigger memo. *)
        let (), mcr_ms =
          time (fun () ->
              ignore (Ee_core.Mcr_select.plan ~memo:(Ee_core.Trigger.Memo.create ()) pl))
        in
        let (_, r), search_ms =
          time (fun () -> Select.run ~memo:(Ee_core.Trigger.Memo.create ()) pl)
        in
        plan_ms := (id, mcr_ms, search_ms) :: !plan_ms;
        if r.Select.lambda > r.Select.lambda_mcr then
          lambda_failures :=
            Printf.sprintf "%s: shared lambda %.4f > mcr lambda %.4f" id r.Select.lambda
              r.Select.lambda_mcr
            :: !lambda_failures;
        let covers =
          Cutmap.wide_covers ~lut_k:6
            (Ee_frontend.Remap.to_gates a.Ee_report.Pipeline.netlist)
        in
        let wide = List.filter (fun w -> List.length w.Cutmap.wleaves > 4) covers in
        let best_cov =
          if wide = [] then 0.
          else
            List.fold_left
              (fun acc w ->
                match Driver.candidates ~top_k:1 w.Cutmap.wfunc with
                | c :: _ -> acc +. c.Driver.coverage
                | [] -> acc)
              0. wide
            /. float_of_int (List.length wide)
        in
        Ee_util.Table.add_row t
          [
            id;
            Printf.sprintf "%.2f" r.Select.lambda_no_ee;
            Printf.sprintf "%.2f" r.Select.lambda_mcr;
            Printf.sprintf "%.2f" r.Select.lambda;
            string_of_int r.Select.trials;
            string_of_int (List.length r.Select.shared_groups);
            string_of_int (List.length wide);
            Printf.sprintf "%.1f" best_cov;
            Printf.sprintf "%.1f" mcr_ms;
            Printf.sprintf "%.1f" search_ms;
          ];
        Json.Obj
          [
            ("id", Json.String id);
            ("lambda_no_ee", Json.Float r.Select.lambda_no_ee);
            ("lambda_mcr", Json.Float r.Select.lambda_mcr);
            ("lambda_search", Json.Float r.Select.lambda);
            ("trials", Json.Int r.Select.trials);
            ("fell_back", Json.Bool r.Select.fell_back);
            ("shared_groups", Json.Int (List.length r.Select.shared_groups));
            ("wide_cones", Json.Int (List.length wide));
            ("mean_best_coverage_percent", Json.Float best_cov);
            ("mcr_ms", Json.Float mcr_ms);
            ("search_ms", Json.Float search_ms);
          ])
      itc
  in
  Ee_util.Table.print t;
  let json =
    Json.Obj
      [
        ("seed", Json.Int seed);
        ("fast", Json.Bool fast);
        ("crossover", Json.List (List.rev !crossover_rows));
        ( "crossover_gate",
          Json.Obj
            [
              ("arity", Json.Int 6);
              ("min_coverage", Json.Float pr_min);
              ("top_k", Json.Int pr_top);
              ("search_ms", Json.Float !gate_search_ms);
              ("brute_ms", Json.Float !gate_brute_ms);
              ("passed", Json.Bool crossover_ok);
            ] );
        ("itc99", Json.List itc_rows);
        ( "plan_ms_total",
          (* Planning wall time summed over b01-b13 (the circuits of the
             mcr_plan workload) and over every row. *)
          let total keep =
            List.fold_left
              (fun (m, s) (id, mcr, search) -> if keep id then (m +. mcr, s +. search) else (m, s))
              (0., 0.) !plan_ms
          in
          let entry (tag, (mcr, search)) =
            (tag, Json.Obj [ ("mcr_ms", Json.Float mcr); ("search_ms", Json.Float search) ])
          in
          Json.Obj
            (List.map entry
               [ ("b01_b13", total (fun id -> id <= "b13")); ("all", total (fun _ -> true)) ]) );
        ("lambda_gate_passed", Json.Bool (!lambda_failures = []));
      ]
  in
  let oc = open_out "BENCH_search.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote BENCH_search.json\n";
  if !disagreements > 0 then begin
    Printf.printf "FAIL: search/brute disagreement on %d arity group(s)\n" !disagreements;
    exit 1
  end;
  if not crossover_ok then begin
    Printf.printf "FAIL: pruned search slower than brute force at arity 6\n";
    exit 1
  end;
  List.iter (fun f -> Printf.printf "FAIL: %s\n" f) !lambda_failures;
  if !lambda_failures <> [] then exit 1

(* Bechamel micro-benchmarks: one Test.make per paper table plus the core
   algorithm kernels. *)

let micro () =
  section "Micro-benchmarks (Bechamel)";
  let open Bechamel in
  let rng = Ee_util.Prng.create 99 in
  let random_luts = Array.init 256 (fun _ -> Ee_logic.Lut4.random rng) in
  let b04 = Ee_bench_circuits.Itc99.find "b04" in
  let artifact = Ee_report.Pipeline.build b04 in
  let sim = Ee_sim.Sim.create artifact.Ee_report.Pipeline.pl_ee in
  let width = Array.length (Ee_phased.Pl.source_ids artifact.Ee_report.Pipeline.pl_ee) in
  let vec_rng = Ee_util.Prng.create 3 in
  let mg =
    let module Flat = Ee_phased.Flat in
    Flat.marked_graph (Flat.of_pl ~caller:"bench" artifact.Ee_report.Pipeline.pl)
  in
  let idx = ref 0 in
  let tests =
    [
      Test.make ~name:"table1:trigger-truth-table"
        (Staged.stage (fun () -> ignore (Ee_report.Tables.table1 ())));
      Test.make ~name:"table2:cube-analysis"
        (Staged.stage (fun () -> ignore (Ee_report.Tables.table2 ())));
      Test.make ~name:"table3:trigger-search-per-lut"
        (Staged.stage (fun () ->
             idx := (!idx + 1) land 255;
             ignore (Ee_core.Trigger.candidates random_luts.(!idx))));
      (* The paper's practicality claim: subset search cost vs cell width. *)
      Test.make ~name:"trigger-search-width-5"
        (Staged.stage
           (let f = Ee_logic.Truthtab.random (Ee_util.Prng.create 5) 5 in
            fun () -> ignore (Ee_core.Trigger_wide.candidates f)));
      Test.make ~name:"trigger-search-width-6"
        (Staged.stage
           (let f = Ee_logic.Truthtab.random (Ee_util.Prng.create 6) 6 in
            fun () -> ignore (Ee_core.Trigger_wide.candidates f)));
      Test.make ~name:"trigger-cegis-width-6"
        (Staged.stage
           (let f = Ee_logic.Truthtab.random (Ee_util.Prng.create 6) 6 in
            fun () -> ignore (Ee_search.Driver.candidates f)));
      Test.make ~name:"trigger-cegis-width-6-pruned"
        (Staged.stage
           (let f = Ee_logic.Truthtab.random (Ee_util.Prng.create 6) 6 in
            fun () ->
              ignore (Ee_search.Driver.candidates ~min_coverage:50. ~top_k:8 f)));
      Test.make ~name:"table3:pl-wave-simulation(b04)"
        (Staged.stage (fun () ->
             ignore (Ee_sim.Sim.apply sim (Ee_util.Prng.bool_vector vec_rng width))));
      Test.make ~name:"table3:ee-synthesis-plan(b04)"
        (Staged.stage (fun () -> ignore (Ee_core.Synth.plan artifact.Ee_report.Pipeline.pl)));
      Test.make ~name:"marked-graph:liveness(b04)"
        (Staged.stage (fun () -> ignore (Ee_markedgraph.Marked_graph.is_live mg)));
    ]
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
    let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    let results = Analyze.all ols instance raw in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.printf "%-42s %14.1f ns/run\n%!" name est
        | _ -> Printf.printf "%-42s (no estimate)\n%!" name)
      results
  in
  List.iter benchmark tests

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let has f = List.mem f args in
  if has "--fast" then vectors := 25;
  let specific =
    List.exists
      (fun a ->
        List.mem a
          [
            "--table"; "--sweep"; "--ablation-cost"; "--micro"; "--stream"; "--feedback";
            "--analysis"; "--budget"; "--ncl"; "--sharing"; "--mappers"; "--families"; "--distribution"; "--ring"; "--jitter"; "--engine"; "--faults"; "--perf"; "--serve"; "--chaos"; "--corpus"; "--search";
          ])
      args
  in
  let find_value key =
    let rec find = function
      | k :: v :: _ when k = key -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let table_arg = find_value "--table" in
  let engine_domains =
    match find_value "--domains" with
    | None -> None
    | Some s -> (
        match int_of_string_opt s with
        | Some d when d >= 1 -> Some d
        | _ ->
            Printf.eprintf "--domains needs a positive integer, got %S\n" s;
            exit 2)
  in
  let selection_timeout =
    match find_value "--selection-timeout" with
    | None -> 120.
    | Some s -> (
        match float_of_string_opt s with
        | Some f when f > 0. -> f
        | _ ->
            Printf.eprintf "--selection-timeout needs a positive number of seconds, got %S\n" s;
            exit 2)
  in
  let serve_clients =
    match find_value "--clients" with
    | None -> if has "--fast" then 128 else 256
    | Some s -> (
        match int_of_string_opt s with
        | Some n when n >= 1 -> n
        | _ ->
            Printf.eprintf "--clients needs a positive integer, got %S\n" s;
            exit 2)
  in
  if not specific then begin
    print_table1 ();
    print_table2 ();
    print_table3 ~csv:(has "--csv") ();
    print_engine ?domains:engine_domains ();
    print_perf ~selection_timeout ();
    print_serve ~clients:serve_clients ();
    print_chaos ();
    print_faults ();
    print_sweep ();
    print_ablation_cost ();
    print_stream ();
    print_feedback ();
    print_analysis ();
    print_budget ();
    print_jitter ();
    print_ring ();
    print_distribution ();
    print_families ();
    print_mappers ();
    print_sharing ();
    print_ncl ();
    print_corpus ~fast:(has "--fast") ();
    print_search ~fast:(has "--fast") ();
    micro ()
  end
  else begin
    (match table_arg with
    | Some "1" -> print_table1 ()
    | Some "2" -> print_table2 ()
    | Some "3" -> print_table3 ~csv:(has "--csv") ()
    | Some other -> Printf.eprintf "unknown table %s\n" other
    | None -> ());
    if has "--engine" then print_engine ?domains:engine_domains ();
    if has "--perf" then print_perf ~selection_timeout ();
    if has "--serve" then print_serve ~clients:serve_clients ();
    if has "--chaos" then print_chaos ();
    if has "--faults" then print_faults ();
    if has "--sweep" then print_sweep ();
    if has "--ablation-cost" then print_ablation_cost ();
    if has "--stream" then print_stream ();
    if has "--feedback" then print_feedback ();
    if has "--analysis" then print_analysis ();
    if has "--budget" then print_budget ();
    if has "--jitter" then print_jitter ();
    if has "--ring" then print_ring ();
    if has "--distribution" then print_distribution ();
    if has "--families" then print_families ();
    if has "--mappers" then print_mappers ();
    if has "--sharing" then print_sharing ();
    if has "--ncl" then print_ncl ();
    if has "--corpus" then print_corpus ?dir:(find_value "--corpus-dir") ~fast:(has "--fast") ();
    if has "--search" then print_search ~fast:(has "--fast") ();
    if has "--micro" then micro ()
  end
