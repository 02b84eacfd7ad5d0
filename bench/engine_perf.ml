open Report
module Trace = Ee_engine.Trace

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
  let cores = cores () in
  let n = match domains with Some d -> d | None -> max 2 cores in
  (* 4x the table vectors: enough simulation work per row that the suite is
     compute-bound rather than dominated by pool scheduling. *)
  let engine_vectors = 4 * !vectors in
  let spec = suite_spec () |> Engine.with_vectors engine_vectors in
  let benchmarks = engine_benchmarks () in
  (* Both runs are traced alike, so their wall-clocks compare like with
     like and their stage profiles show what each row costs under load. *)
  let traced domains =
    let trace = Trace.create () in
    (Engine.run_suite ~spec ~trace ~domains ~benchmarks (), trace)
  in
  let s1, trace1 = traced 1 in
  let sn, tracen = traced n in
  let rows_match = s1.Engine.table3 = sn.Engine.table3 in
  let speedup = s1.Engine.wall_clock_s /. Float.max sn.Engine.wall_clock_s 1e-9 in
  let gate_enforced = gate_enforced () && n >= 2 in
  Printf.printf "1 domain: %.2f s   %d domains: %.2f s   speedup %.2fx   rows %s\n"
    s1.Engine.wall_clock_s n sn.Engine.wall_clock_s speedup
    (if rows_match then "identical" else "DIVERGED");
  Printf.printf "(%d benchmarks, %d vectors; %d cores on this machine)\n"
    (List.length benchmarks) engine_vectors cores;
  List.iter
    (fun f -> Printf.printf "  failed: %s\n" (Engine.failure_to_string f))
    (Engine.failures sn);
  List.iter
    (fun (domains, trace) ->
      let stage_ms =
        List.fold_left (fun acc st -> acc +. st.Trace.total_ms) 0. (Trace.summary trace)
      in
      Printf.printf "\nPer-stage profile at %d domain%s (%.1f ms of stage time):\n" domains
        (if domains = 1 then "" else "s")
        stage_ms;
      Ee_util.Table.print (Trace.summary_table trace))
    [ (1, trace1); (n, tracen) ];
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
  write_bench "BENCH_engine.json" json;
  if not rows_match then fail "parallel rows diverged from the sequential run";
  if gate_enforced && speedup <= 1.0 then
    fail (Printf.sprintf "%d-domain suite not faster than sequential (%.2fx <= 1.0x)" n speedup);
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
              Ee_report.Perf_report.compare_selection ~waves:200 ~seed:4
                (Ee_report.Pipeline.build b))
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
  write_bench "BENCH_perf.json" (Ee_report.Perf_report.to_json r)
