(* The paper's Tables 1-3, its two ablations and the extension tables
   built on the same pipeline. *)

open Report

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
        ((id :: gain_cells base.Ee_sim.Stream_sim.cycle_time ee.Ee_sim.Stream_sim.cycle_time)
        @ [ Printf.sprintf "%.2f" serial.Ee_sim.Sim.avg_settle_time ]))
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
  if !broken <> [] then
    fail ("minimized marked graph not live and safe: " ^ String.concat " " (List.rev !broken))

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
      let base, ee = sim_pair a.Ee_report.Pipeline.pl a.Ee_report.Pipeline.pl_ee in
      let sim = ee.Sim.avg_settle_time in
      Ee_util.Table.add_row t
        [
          id;
          Printf.sprintf "%.2f" pred;
          Printf.sprintf "%.2f" sim;
          Printf.sprintf "%.0f%%" (abs_float (pred -. sim) /. sim *. 100.);
          Printf.sprintf "%.1f%%"
            (Ee_core.Analysis.predicted_speedup a.Ee_report.Pipeline.pl a.Ee_report.Pipeline.pl_ee);
          Printf.sprintf "%.1f%%" (settle_gain base ee);
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
            (id :: Printf.sprintf "%.0f%%" (spread *. 100.) :: gain_cells base ee))
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
      let base, r = sim_pair ~vectors:400 a.Ee_report.Pipeline.pl a.Ee_report.Pipeline.pl_ee in
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
      let pl, pl_ee, rep = ee_pl nl in
      let base, ee = sim_pair pl pl_ee in
      Ee_util.Table.add_row t
        ([
           f.Ee_bench_circuits.Families.name;
           string_of_int (Ee_netlist.Netlist.lut_count nl);
           string_of_int rep.Ee_core.Synth.ee_gates;
         ]
        @ gain_cells base.Sim.avg_settle_time ee.Sim.avg_settle_time
        @ [ Printf.sprintf "%.2f" ee.Sim.early_fire_rate ]))
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
          let pl, pl_ee, _ = ee_pl nl in
          let base, ee = sim_pair pl pl_ee in
          Ee_util.Table.add_row t
            ([
               id;
               tag;
               string_of_int (Ee_netlist.Netlist.lut_count nl);
               string_of_int (Ee_netlist.Netlist.depth nl);
             ]
            @ gain_cells base.Sim.avg_settle_time ee.Sim.avg_settle_time))
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
      let _, pl_ee, _ = ee_pl nl in
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
