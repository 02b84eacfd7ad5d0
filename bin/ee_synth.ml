(* Command-line front-end for the early-evaluation synthesis flow.

   ee_synth list                         enumerate benchmark circuits
   ee_synth run b04 [--threshold T] ...  synthesize + simulate one circuit
   ee_synth suite [--jobs N] ...         all 15 benchmarks on a domain pool
   ee_synth inspect b04 [--dot FILE]     netlist/PL statistics and exports
   ee_synth check b04                    marked-graph liveness/safety proof
   ee_synth perf b04 [--selection] ...   analytic throughput (max cycle ratio)
   ee_synth faults b04 [--json FILE]     fault-injection campaign
   ee_synth client import --file f.aig   import an arbitrary BLIF/AIGER netlist
                                         through a running ee_synthd *)

open Cmdliner
module Engine = Ee_engine.Engine
module Trace = Ee_engine.Trace

let find_bench id =
  match Engine.find_benchmark id with Ok b -> Ok b | Error msg -> Error (`Msg msg)

let bench_arg =
  let parse s = find_bench s in
  let print fmt b = Format.pp_print_string fmt b.Ee_bench_circuits.Itc99.id in
  Arg.conv (parse, print)

let bench_pos =
  Arg.(required & pos 0 (some bench_arg) None & info [] ~docv:"BENCH" ~doc:"Benchmark id (b01..b15).")

let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "%S is not a positive integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let threshold_t =
  Arg.(value & opt float 0. & info [ "threshold" ] ~docv:"T" ~doc:"Minimum cost for inserting an EE pair.")

let vectors_t =
  Arg.(value & opt int 100 & info [ "vectors" ] ~docv:"N" ~doc:"Random input vectors to simulate.")

let seed_t = Arg.(value & opt int 2002 & info [ "seed" ] ~docv:"S" ~doc:"PRNG seed.")

let coverage_only_t =
  Arg.(value & flag & info [ "coverage-only" ] ~doc:"Rank candidates by coverage only (ablation).")

let spec_of threshold coverage_only vectors seed =
  Engine.default_spec
  |> Engine.with_threshold threshold
  |> Engine.with_coverage_only coverage_only
  |> Engine.with_vectors vectors
  |> Engine.with_seed seed

(* The artifact of a subcommand that plans but does not simulate. *)
let build bench threshold coverage_only =
  Engine.build (spec_of threshold coverage_only 100 2002) bench

let list_cmd =
  let doc = "List the benchmark circuits." in
  let run () =
    List.iter
      (fun b ->
        Printf.printf "%-4s %s\n" b.Ee_bench_circuits.Itc99.id
          b.Ee_bench_circuits.Itc99.description)
      Engine.benchmarks
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let run_cmd =
  let doc = "Synthesize a benchmark with early evaluation and report the speedup." in
  let run bench threshold coverage_only vectors seed =
    let spec = spec_of threshold coverage_only vectors seed in
    let r = Engine.run ~spec bench in
    let a = r.Engine.artifact and row = r.Engine.row in
    Printf.printf "%s: %s\n" a.Ee_report.Pipeline.id a.Ee_report.Pipeline.description;
    Printf.printf "  netlist: %s\n" (Ee_netlist.Netlist.stats_string a.Ee_report.Pipeline.netlist);
    Printf.printf "  PL gates: %d   EE gates: %d (+%.0f%% area)\n" row.Ee_report.Tables.pl_gates
      row.Ee_report.Tables.ee_gates row.Ee_report.Tables.area_increase;
    Printf.printf "  avg delay: %.2f -> %.2f gate delays (%.1f%% decrease) over %d vectors\n"
      row.Ee_report.Tables.delay_no_ee row.Ee_report.Tables.delay_ee
      row.Ee_report.Tables.delay_decrease vectors;
    let ok = Ee_sim.Sim.equiv_random a.Ee_report.Pipeline.pl_ee a.Ee_report.Pipeline.netlist ~vectors ~seed in
    Printf.printf "  functional equivalence vs synchronous golden model: %s\n"
      (if ok then "PASS" else "FAIL");
    if not ok then exit 1
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ bench_pos $ threshold_t $ coverage_only_t $ vectors_t $ seed_t)

let suite_cmd =
  let doc =
    "Run all fifteen Table 3 benchmarks on a pool of domains and print the table."
  in
  let jobs_t =
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains (1 = sequential).")
  in
  let profile_t =
    Arg.(value & flag & info [ "profile" ] ~doc:"Print the per-stage timing summary.")
  in
  let trace_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write Chrome trace_event JSON (load in chrome://tracing or Perfetto).")
  in
  let csv_t = Arg.(value & flag & info [ "csv" ] ~doc:"Also print the table as CSV.") in
  let deadline_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Per-benchmark deadline: a benchmark with no result in time is reported as an \
             error row instead of hanging the suite.")
  in
  let run threshold coverage_only vectors seed jobs profile trace_file csv deadline_s =
    let spec = spec_of threshold coverage_only vectors seed in
    let trace =
      if profile || trace_file <> None then Some (Trace.create ()) else None
    in
    let s = Engine.run_suite ~spec ?trace ~domains:jobs ?deadline_s () in
    List.iter
      (fun f -> Printf.eprintf "ee_synth: benchmark failed: %s\n" (Engine.failure_to_string f))
      (Engine.failures s);
    let t = Ee_report.Tables.table3_to_table s.Engine.table3 in
    Ee_util.Table.print t;
    Printf.printf "\nAverage speedup %.1f%%, average area increase %.0f%% (%d vectors, seed %d).\n"
      s.Engine.table3.Ee_report.Tables.avg_delay_decrease
      s.Engine.table3.Ee_report.Tables.avg_area_increase vectors seed;
    Printf.printf "Suite wall-clock: %.2f s on %d domain%s.\n" s.Engine.wall_clock_s
      s.Engine.domains
      (if s.Engine.domains = 1 then "" else "s");
    if csv then
      print_string
        (Ee_util.Table.to_csv (Ee_report.Tables.table3_to_table ~cycles:true s.Engine.table3));
    Option.iter
      (fun tr ->
        if profile then begin
          Printf.printf "\nPer-stage profile:\n";
          Ee_util.Table.print (Trace.summary_table tr)
        end;
        Option.iter
          (fun file ->
            match Trace.write_chrome_json tr file with
            | () -> Printf.printf "wrote %s (%d spans)\n" file (List.length (Trace.spans tr))
            | exception Sys_error msg ->
                Printf.eprintf "ee_synth: cannot write trace: %s\n" msg;
                exit 1)
          trace_file)
      trace;
    if Engine.failures s <> [] then exit 1
  in
  Cmd.v (Cmd.info "suite" ~doc)
    Term.(
      const run $ threshold_t $ coverage_only_t $ vectors_t $ seed_t $ jobs_t $ profile_t
      $ trace_t $ csv_t $ deadline_t)

let inspect_cmd =
  let doc = "Print statistics; optionally export DOT renderings." in
  let dot_t =
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc:"Write the EE PL netlist as Graphviz DOT.")
  in
  let run bench threshold coverage_only dot =
    let a = build bench threshold coverage_only in
    Printf.printf "%s: %s\n" a.Ee_report.Pipeline.id a.Ee_report.Pipeline.description;
    Printf.printf "  netlist: %s\n" (Ee_netlist.Netlist.stats_string a.Ee_report.Pipeline.netlist);
    Printf.printf "  PL (no EE): %s\n" (Ee_phased.Pl.stats_string a.Ee_report.Pipeline.pl);
    Printf.printf "  PL (EE):    %s\n" (Ee_phased.Pl.stats_string a.Ee_report.Pipeline.pl_ee);
    List.iter
      (fun (c : Ee_core.Synth.gate_choice) ->
        Printf.printf "  master %4d: subset=%x coverage=%.0f%% Mmax=%d Tmax=%d cost=%.1f\n"
          c.Ee_core.Synth.master c.Ee_core.Synth.chosen.Ee_core.Trigger.subset
          c.Ee_core.Synth.chosen.Ee_core.Trigger.coverage c.Ee_core.Synth.m_max
          c.Ee_core.Synth.t_max c.Ee_core.Synth.cost)
      a.Ee_report.Pipeline.synth_report.Ee_core.Synth.inserted;
    match dot with
    | Some file ->
        let oc = open_out file in
        output_string oc (Ee_phased.Pl.to_dot a.Ee_report.Pipeline.pl_ee);
        close_out oc;
        Printf.printf "  wrote %s\n" file
    | None -> ()
  in
  Cmd.v (Cmd.info "inspect" ~doc)
    Term.(const run $ bench_pos $ threshold_t $ coverage_only_t $ dot_t)

let export_cmd =
  let doc = "Export a benchmark as BLIF (synchronous netlist) or PL VHDL (with EE)." in
  let format_t =
    Arg.(
      required
      & opt (some (enum [ ("blif", `Blif); ("vhdl", `Vhdl); ("vcd", `Vcd) ])) None
      & info [ "format" ] ~docv:"FMT" ~doc:"blif, vhdl or vcd (waveform of 20 random waves)")
  in
  let out_t =
    Arg.(value & opt (some string) None & info [ "o" ] ~docv:"FILE" ~doc:"Output file (default stdout).")
  in
  let run bench threshold coverage_only format out =
    let a = build bench threshold coverage_only in
    let text =
      match format with
      | `Blif -> Ee_export.Blif.to_blif ~model:a.Ee_report.Pipeline.id a.Ee_report.Pipeline.netlist
      | `Vhdl ->
          Ee_export.Vhdl.of_pl
            ~entity:(a.Ee_report.Pipeline.id ^ "_pl")
            a.Ee_report.Pipeline.pl_ee
      | `Vcd -> Ee_export.Vcd.dump_random a.Ee_report.Pipeline.pl_ee ~waves:20 ~seed:2002
    in
    match out with
    | None -> print_string text
    | Some file ->
        let oc = open_out file in
        output_string oc text;
        close_out oc;
        Printf.printf "wrote %s\n" file
  in
  Cmd.v (Cmd.info "export" ~doc)
    Term.(const run $ bench_pos $ threshold_t $ coverage_only_t $ format_t $ out_t)

let analyze_cmd =
  let doc = "Analytical delay prediction (no simulation) for a benchmark." in
  let run bench threshold coverage_only vectors seed =
    let a = build bench threshold coverage_only in
    let pred_base = Ee_core.Analysis.predict a.Ee_report.Pipeline.pl in
    let pred_ee = Ee_core.Analysis.predict a.Ee_report.Pipeline.pl_ee in
    Printf.printf "%s: predicted settle %.2f -> %.2f (%.1f%% speedup predicted)\n"
      a.Ee_report.Pipeline.id pred_base.Ee_core.Analysis.predicted_settle
      pred_ee.Ee_core.Analysis.predicted_settle
      (Ee_core.Analysis.predicted_speedup a.Ee_report.Pipeline.pl a.Ee_report.Pipeline.pl_ee);
    let sim_base = Ee_sim.Sim.run_random a.Ee_report.Pipeline.pl ~vectors ~seed in
    let sim_ee = Ee_sim.Sim.run_random a.Ee_report.Pipeline.pl_ee ~vectors ~seed in
    Printf.printf "    simulated settle %.2f -> %.2f (%.1f%% measured over %d vectors)\n"
      sim_base.Ee_sim.Sim.avg_settle_time sim_ee.Ee_sim.Sim.avg_settle_time
      (Ee_util.Stats.percent_change ~before:sim_base.Ee_sim.Sim.avg_settle_time
         ~after:sim_ee.Ee_sim.Sim.avg_settle_time)
      vectors;
    List.iter
      (fun (master, rate) ->
        Printf.printf "    master %4d: predicted trigger rate %.2f\n" master rate)
      pred_ee.Ee_core.Analysis.trigger_rates
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(const run $ bench_pos $ threshold_t $ coverage_only_t $ vectors_t $ seed_t)

let faults_cmd =
  let doc =
    "Fault-injection campaign: inject stuck rails, glitches, trigger corruption and token \
     loss/duplication into the rail-level simulator and classify every outcome."
  in
  let waves_t =
    Arg.(value & opt positive_int 16 & info [ "waves" ] ~docv:"N" ~doc:"Input waves per fault run.")
  in
  let json_t =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc:"Write the full report as JSON.")
  in
  let csv_t =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc:"Write one CSV line per fault.")
  in
  let audit_t =
    Arg.(value & flag & info [ "token-audit" ] ~doc:"Also corrupt the marked-graph marking arc by arc.")
  in
  let write file text =
    let oc = open_out file in
    output_string oc text;
    close_out oc;
    Printf.printf "wrote %s\n" file
  in
  let run bench threshold coverage_only waves seed json csv audit =
    let a = build bench threshold coverage_only in
    let pl = a.Ee_report.Pipeline.pl_ee and nl = a.Ee_report.Pipeline.netlist in
    let r = Ee_fault.Campaign.run ~waves ~seed ~bench:a.Ee_report.Pipeline.id pl nl in
    print_endline (Ee_fault.Campaign.summary_string r);
    List.iter
      (fun (s : Ee_fault.Campaign.schedule_check) ->
        Printf.printf "  schedule %-14s %-8s (%d early firings)\n" s.Ee_fault.Campaign.schedule
          (if s.Ee_fault.Campaign.agrees then "agrees" else "MISMATCH")
          s.Ee_fault.Campaign.early_total)
      r.Ee_fault.Campaign.schedules;
    List.iter
      (fun (rec_ : Ee_fault.Campaign.record) ->
        match rec_.Ee_fault.Campaign.outcome with
        | Ee_fault.Campaign.Wrong_output _ as o ->
            Printf.printf "  WRONG OUTPUT: %s — %s\n"
              (Ee_fault.Fault.to_string rec_.Ee_fault.Campaign.fault)
              (Ee_fault.Campaign.outcome_detail o)
        | _ -> ())
      r.Ee_fault.Campaign.records;
    if audit then begin
      let gates = Array.length (Ee_phased.Pl.gates pl) in
      let audits = Ee_fault.Campaign.token_audit pl ~steps:(50 * gates) ~seed in
      let count p = List.length (List.filter p audits) in
      Printf.printf
        "  token audit over %d corruptions: %d deadlocked, %d unsafe, %d survived\n"
        (List.length audits)
        (count (fun a -> match a.Ee_fault.Campaign.verdict with Ee_fault.Campaign.Audit_dead _ -> true | _ -> false))
        (count (fun a -> match a.Ee_fault.Campaign.verdict with Ee_fault.Campaign.Audit_unsafe _ -> true | _ -> false))
        (count (fun a -> a.Ee_fault.Campaign.verdict = Ee_fault.Campaign.Audit_live))
    end;
    Option.iter (fun file -> write file (Ee_fault.Campaign.to_json r)) json;
    Option.iter (fun file -> write file (Ee_fault.Campaign.to_csv r)) csv;
    if r.Ee_fault.Campaign.wrong_output > 0
       || List.exists (fun (s : Ee_fault.Campaign.schedule_check) -> not s.Ee_fault.Campaign.agrees)
            r.Ee_fault.Campaign.schedules
    then exit 1
  in
  Cmd.v (Cmd.info "faults" ~doc)
    Term.(
      const run $ bench_pos $ threshold_t $ coverage_only_t $ waves_t $ seed_t $ json_t
      $ csv_t $ audit_t)

let perf_cmd =
  let doc =
    "Static throughput analysis: maximum-cycle-ratio period, critical cycle and \
     bottlenecks, validated against the streaming simulator."
  in
  let waves_t =
    Arg.(value & opt int 240 & info [ "waves" ] ~docv:"N" ~doc:"Waves for the validation run.")
  in
  let tolerance_t =
    Arg.(
      value & opt float 5.0
      & info [ "tolerance" ] ~docv:"PCT"
          ~doc:"Maximum analytic-vs-simulated disagreement percent before failing.")
  in
  let json_t = Arg.(value & flag & info [ "json" ] ~doc:"Print the report as JSON.") in
  let perf_seed_t =
    Arg.(value & opt int 11 & info [ "seed" ] ~docv:"S" ~doc:"PRNG seed for the validation run.")
  in
  let selection_t =
    Arg.(
      value & flag
      & info [ "selection" ]
          ~doc:"Also compare MCR-greedy EE selection against the Equation-1 policy.")
  in
  let run bench threshold coverage_only waves seed tolerance json selection =
    let spec = spec_of threshold coverage_only 100 2002 in
    let a = Engine.build spec bench in
    let r = Ee_report.Perf_report.analyze_bench ~waves ~seed a in
    let sel = if selection then [ Ee_report.Perf_report.compare_selection a ] else [] in
    let report = { Ee_report.Perf_report.rows = [ r ]; selection = sel } in
    if json then print_string (Ee_report.Perf_report.to_json report)
    else begin
      Printf.printf "%s: %s\n" r.Ee_report.Perf_report.id r.Ee_report.Perf_report.description;
      Printf.printf "  analytic period (no EE): %.4f  (throughput %.4f waves/unit)\n"
        r.Ee_report.Perf_report.lambda_no_ee
        (1. /. r.Ee_report.Perf_report.lambda_no_ee);
      Printf.printf "  Karp cross-check gap: %.3e\n" r.Ee_report.Perf_report.karp_gap;
      Printf.printf "  critical cycle: %s\n" r.Ee_report.Perf_report.critical_cycle;
      List.iter
        (fun (name, slack) -> Printf.printf "    bottleneck %-8s slack %.4f\n" name slack)
        r.Ee_report.Perf_report.tightest;
      Printf.printf "  EE period: eager %.4f <= expected %.4f <= guarded %.4f\n"
        r.Ee_report.Perf_report.lambda_eager r.Ee_report.Perf_report.lambda_expected
        r.Ee_report.Perf_report.lambda_guarded;
      Printf.printf "  predicted EE speedup: %.1f%%\n" r.Ee_report.Perf_report.analytic_gain;
      Printf.printf "  simulated (no EE): %.4f (%.2f%% off analytic)\n"
        r.Ee_report.Perf_report.sim_no_ee r.Ee_report.Perf_report.err_no_ee;
      Printf.printf "  simulated (EE):    %.4f (%.2f%% off expected)\n"
        r.Ee_report.Perf_report.sim_ee r.Ee_report.Perf_report.err_ee;
      List.iter
        (fun (s : Ee_report.Perf_report.selection_row) ->
          Printf.printf
            "  selection: Eq1 %d pairs (period %.4f, gain %.1f%%) vs MCR %d pairs \
             (period %.4f, gain %.1f%%), overlap %.0f%%\n"
            s.Ee_report.Perf_report.eq1_gates s.Ee_report.Perf_report.eq1_lambda
            s.Ee_report.Perf_report.eq1_gain s.Ee_report.Perf_report.mcr_gates
            s.Ee_report.Perf_report.mcr_lambda s.Ee_report.Perf_report.mcr_gain
            s.Ee_report.Perf_report.overlap_percent)
        sel
    end;
    (* The analytic model must track the measured period: hard gate for CI. *)
    let scale = tolerance /. 100. in
    let no_ee_ok = r.Ee_report.Perf_report.err_no_ee <= tolerance in
    let ee_ok =
      r.Ee_report.Perf_report.sim_ee
      >= (r.Ee_report.Perf_report.lambda_eager *. (1. -. scale)) -. 1e-9
      && r.Ee_report.Perf_report.sim_ee
         <= (r.Ee_report.Perf_report.lambda_guarded *. (1. +. scale)) +. 1e-9
    in
    let karp_ok = r.Ee_report.Perf_report.karp_gap <= 1e-6 in
    if not (no_ee_ok && ee_ok && karp_ok) then begin
      Printf.eprintf
        "ee_synth perf: validation FAILED (no-EE within %.1f%%: %b; EE within \
         [eager-%.1f%%, guarded+%.1f%%]: %b; Karp agrees: %b)\n"
        tolerance no_ee_ok tolerance tolerance ee_ok karp_ok;
      exit 1
    end
  in
  Cmd.v (Cmd.info "perf" ~doc)
    Term.(
      const run $ bench_pos $ threshold_t $ coverage_only_t $ waves_t $ perf_seed_t
      $ tolerance_t $ json_t $ selection_t)

let search_cmd =
  let doc =
    "Trigger extraction on wide-LUT cones, shared multi-master triggers, \
     coverage/area Pareto fronts."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Covers the benchmark's netlist with LUT-$(i,K) cones ($(b,--lut-k); analysis \
         only — the emitted netlist cell stays LUT4) and extracts the trigger \
         candidates of every cone wider than four inputs by word-parallel \
         quantification (the extractor the LUT4 flow uses).  $(b,--shared) \
         additionally runs the shared multi-master trigger selection and prints the \
         period table against the per-gate MCR floor; $(b,--pareto) N prints the \
         coverage-vs-cubes front of the N widest cones.  Exits 1 if the shared \
         selection regresses the period.";
    ]
  in
  let lut_k_t =
    Arg.(value & opt int 6 & info [ "lut-k" ] ~docv:"K" ~doc:"Wide-LUT arity for the cone cover (4..8).")
  in
  let top_k_t =
    Arg.(value & opt int 8 & info [ "top-k" ] ~docv:"N" ~doc:"Candidates kept per cone.")
  in
  let min_coverage_t =
    Arg.(value & opt float 0. & info [ "min-coverage" ] ~docv:"PCT" ~doc:"Coverage floor for kept candidates.")
  in
  let shared_t =
    Arg.(value & flag & info [ "shared" ] ~doc:"Run the shared multi-master trigger selection.")
  in
  let pareto_t =
    Arg.(value & opt int 0 & info [ "pareto" ] ~docv:"N" ~doc:"Print the Pareto front of the N widest cones.")
  in
  let run bench lut_k top_k min_coverage shared pareto =
    let module Cutmap = Ee_rtl.Cutmap in
    let module Select = Ee_search.Search_select in
    let a = Engine.build Engine.default_spec bench in
    let nl = a.Ee_report.Pipeline.netlist in
    Printf.printf "%s: %s\n" a.Ee_report.Pipeline.id a.Ee_report.Pipeline.description;
    let covers = Cutmap.wide_covers ~lut_k (Ee_frontend.Remap.to_gates nl) in
    let wide = List.filter (fun w -> List.length w.Cutmap.wleaves > 4) covers in
    let hist = Array.make (lut_k + 1) 0 in
    List.iter
      (fun w ->
        let k = List.length w.Cutmap.wleaves in
        hist.(k) <- hist.(k) + 1)
      covers;
    Printf.printf "  LUT-%d cover: %d cones (%d wider than 4 inputs); width histogram:" lut_k
      (List.length covers) (List.length wide);
    Array.iteri (fun k c -> if c > 0 then Printf.printf " %d:%d" k c) hist;
    print_newline ();
    let t0 = Unix.gettimeofday () in
    let analyzed =
      List.map (fun w -> (w, Ee_core.Trigger.extract ~min_coverage ~top_k w.Cutmap.wfunc)) wide
    in
    Printf.printf "  trigger extraction on the %d wide cones: %.1f ms\n" (List.length wide)
      ((Unix.gettimeofday () -. t0) *. 1e3);
    let widest =
      List.stable_sort
        (fun (wa, _) (wb, _) ->
          compare (List.length wb.Cutmap.wleaves) (List.length wa.Cutmap.wleaves))
        analyzed
    in
    List.iteri
      (fun i (w, cands) ->
        if i < 10 then
          let best =
            List.fold_left
              (fun acc (c : Ee_core.Trigger.wide) -> max acc c.Ee_core.Trigger.coverage)
              0. cands
          in
          Printf.printf "    cone %4d: %d inputs, %2d candidates, best coverage %.1f%%\n"
            w.Cutmap.wroot
            (List.length w.Cutmap.wleaves)
            (List.length cands) best)
      widest;
    if shared then begin
      let _, r = Select.run (Ee_phased.Pl.of_netlist nl) in
      Printf.printf "  shared-trigger selection:\n";
      Printf.printf "    lambda no-EE %.3f   mcr %.3f   search %.3f   (%d trial%s%s)\n"
        r.Select.lambda_no_ee r.Select.lambda_mcr r.Select.lambda r.Select.trials
        (if r.Select.trials = 1 then "" else "s")
        (if r.Select.fell_back then ", FELL BACK" else "");
      List.iter
        (fun (g : Select.shared_group) ->
          Printf.printf "    group: masters [%s] over signals [%s], mean coverage %.1f%%\n"
            (String.concat "," (List.map string_of_int g.Select.sg_masters))
            (String.concat "," (List.map string_of_int g.Select.sg_signals))
            g.Select.sg_coverage)
        r.Select.shared_groups;
      if r.Select.lambda > r.Select.lambda_mcr then begin
        Printf.eprintf "ee_synth search: shared selection regressed the period\n";
        exit 1
      end
    end;
    List.iteri
      (fun i (w, _) ->
        if i < pareto then begin
          Printf.printf "  pareto front of cone %d (%d inputs):\n" w.Cutmap.wroot
            (List.length w.Cutmap.wleaves);
          List.iter
            (fun (p : Ee_search.Pareto.point) ->
              Printf.printf "    %2d cube%s -> %5.1f%% coverage (subset %#x%s)\n"
                p.Ee_search.Pareto.pt_cubes
                (if p.Ee_search.Pareto.pt_cubes = 1 then " " else "s")
                p.Ee_search.Pareto.pt_coverage p.Ee_search.Pareto.pt_subset
                (if p.Ee_search.Pareto.pt_exact then "" else ", budgeted"))
            (Ee_search.Pareto.front w.Cutmap.wfunc)
        end)
      widest
  in
  Cmd.v (Cmd.info "search" ~doc ~man)
    Term.(const run $ bench_pos $ lut_k_t $ top_k_t $ min_coverage_t $ shared_t $ pareto_t)

let check_cmd =
  let doc = "Verify marked-graph liveness and safety of the PL mapping (with and without EE)." in
  let run bench =
    let a = Engine.build Engine.default_spec bench in
    match Ee_report.Pipeline.check_live_safe a with
    | Ok () ->
        Printf.printf "%s: marked graph is live and safe (with and without EE)\n"
          a.Ee_report.Pipeline.id
    | Error msg ->
        Printf.printf "%s: VIOLATION: %s\n" a.Ee_report.Pipeline.id msg;
        exit 1
  in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run $ bench_pos)

let client_cmd =
  let doc = "Send one request to a running ee_synthd and print the response line." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "COMMAND is one of synth, import, perf, faults, stats, health, ping, shutdown, \
         or raw. 'raw' sends $(b,--json) verbatim. synth/import/perf/faults accept the \
         usual spec knobs; the response is one JSON line on stdout (exit 1 if its \
         status is \"error\").";
      `P "'synth' measures the ITC99 benchmark named by $(b,--bench).";
      `P
        "'import' is the request for your own netlists: it sends a file ($(b,--file), \
         full-dialect BLIF or ASCII/binary AIGER — binary payloads are base64-coded \
         automatically) through the frontend: parse, delay-driven LUT4 remap (disable \
         with $(b,--no-remap)), EE synthesis and simulation.  $(b,--search) adds the \
         trigger-search section to the row of either.";
    ]
  in
  let run command socket tcp bench file format_name no_remap waves deadline
      threshold coverage_only vectors seed selection search lut_k json =
    let module Client = Ee_serve.Client in
    let module Protocol = Ee_serve.Protocol in
    let address =
      match tcp with
      | None -> Ok (`Unix socket)
      | Some spec -> Result.map (fun hp -> `Tcp hp) (Ee_serve.Server.host_port spec)
    in
    let spec =
      let base = spec_of threshold coverage_only vectors seed in
      let base =
        match Option.bind selection Engine.selection_of_string with
        | Some sel -> Engine.with_selection sel base
        | None -> base
      in
      match lut_k with Some k -> Engine.with_lut_k k base | None -> base
    in
    let line =
      match command with
      | "raw" -> (
          match json with
          | Some l -> Ok l
          | None -> Error "raw needs --json REQUEST")
      | _ -> (
          let req =
            match command with
            | "synth" ->
                Result.map
                  (fun bench -> Protocol.Synth { bench; spec; search })
                  (Option.to_result ~none:"synth needs --bench" bench)
            | "import" -> (
                match file with
                | None -> Error "import needs --file NETLIST"
                | Some path -> (
                    match In_channel.with_open_bin path In_channel.input_all with
                    | exception Sys_error m -> Error m
                    | text -> (
                        Result.map
                          (fun format ->
                            Protocol.Import { text; format; remap = not no_remap; search; spec })
                          (Protocol.import_format format_name))))
            | "perf" ->
                Result.map
                  (fun b -> Protocol.Perf { bench = b; spec; waves = Option.value waves ~default:240 })
                  (Option.to_result ~none:"perf needs --bench" bench)
            | "faults" ->
                Result.map
                  (fun b -> Protocol.Faults { bench = b; spec; waves = Option.value waves ~default:16 })
                  (Option.to_result ~none:"faults needs --bench" bench)
            | "stats" -> Ok Protocol.Stats
            | "health" -> Ok Protocol.Health
            | "ping" -> Ok Protocol.Ping
            | "shutdown" -> Ok Protocol.Shutdown
            | c -> Error (Printf.sprintf "unknown command %S" c)
          in
          Result.map
            (fun req ->
              Ee_export.Json.to_string
                (Protocol.envelope_to_json
                   { Protocol.id = Ee_export.Json.Null; deadline_s = deadline; req }))
            req)
    in
    match (address, line) with
    | Error m, _ | _, Error m ->
        prerr_endline ("ee_synth client: " ^ m);
        exit 2
    | Ok address, Ok line -> (
        match Client.connect ~retries:3 address with
        | exception Unix.Unix_error (e, _, _) ->
            prerr_endline ("ee_synth client: cannot connect: " ^ Unix.error_message e);
            exit 1
        | client ->
            let resp = Client.request_line client line in
            Client.close client;
            print_endline resp;
            let failed =
              match Ee_export.Json.parse resp with
              | Ok j -> Ee_export.Json.member "status" j = Some (Ee_export.Json.String "error")
              | Error _ -> true
            in
            if failed then exit 1)
  in
  let command_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"COMMAND" ~doc:"synth, import, perf, faults, stats, health, ping, shutdown, or raw.")
  in
  let socket_t =
    Arg.(value & opt string "ee_synthd.sock" & info [ "socket" ] ~docv:"PATH" ~doc:"Unix socket of the daemon.")
  in
  let tcp_t =
    Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"Connect over TCP instead.")
  in
  let bench_t =
    Arg.(value & opt (some string) None & info [ "bench" ] ~docv:"BENCH" ~doc:"Benchmark id (b01..b15).")
  in
  let file_t =
    Arg.(value & opt (some string) None & info [ "file" ] ~docv:"NETLIST" ~doc:"Netlist file for 'import' (BLIF or AIGER, binary allowed).")
  in
  let format_t =
    Arg.(value & opt (some string) None & info [ "format" ] ~docv:"FMT" ~doc:"Import format: auto (default), blif, aag, aig.")
  in
  let no_remap_t =
    Arg.(value & flag & info [ "no-remap" ] ~doc:"Serve the imported netlist as-is instead of delay-remapping it.")
  in
  let waves_t =
    Arg.(value & opt (some int) None & info [ "waves" ] ~docv:"N" ~doc:"Waves for perf/faults.")
  in
  let deadline_t =
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"S" ~doc:"Per-request deadline in seconds.")
  in
  let selection_t =
    Arg.(value & opt (some string) None & info [ "selection" ] ~docv:"NAME" ~doc:"EE selection: eq1, mcr or search.")
  in
  let search_t =
    Arg.(value & flag & info [ "search" ] ~doc:"Ask 'synth' or 'import' for the trigger-search section (shared-trigger lambda table and wide-cone summary).")
  in
  let lut_k_t =
    Arg.(value & opt (some int) None & info [ "lut-k" ] ~docv:"K" ~doc:"Wide-LUT arity for the search analyses (4..8).")
  in
  let json_t =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"REQUEST" ~doc:"Raw request line for 'raw'.")
  in
  Cmd.v (Cmd.info "client" ~doc ~man)
    Term.(
      const run $ command_pos $ socket_t $ tcp_t $ bench_t $ file_t
      $ format_t $ no_remap_t $ waves_t
      $ deadline_t $ threshold_t $ coverage_only_t $ vectors_t $ seed_t
      $ selection_t $ search_t $ lut_k_t $ json_t)

let main =
  let doc = "early-evaluation synthesis for phased-logic circuits (DATE 2002 reproduction)" in
  Cmd.group (Cmd.info "ee_synth" ~doc)
    [
      list_cmd; run_cmd; suite_cmd; inspect_cmd; check_cmd; export_cmd; analyze_cmd;
      perf_cmd; faults_cmd; search_cmd; client_cmd;
    ]

let () = exit (Cmd.eval main)
