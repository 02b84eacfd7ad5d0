open Report

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
            fun () -> ignore (Ee_core.Trigger.extract f)));
      Test.make ~name:"trigger-search-width-6"
        (Staged.stage
           (let f = Ee_logic.Truthtab.random (Ee_util.Prng.create 6) 6 in
            fun () -> ignore (Ee_core.Trigger.extract f)));
      Test.make ~name:"trigger-search-width-6-pruned"
        (Staged.stage
           (let f = Ee_logic.Truthtab.random (Ee_util.Prng.create 6) 6 in
            fun () -> ignore (Ee_core.Trigger.extract ~min_coverage:50. ~top_k:8 f)));
      Test.make ~name:"trigger-search-width-8"
        (Staged.stage
           (let f = Ee_logic.Truthtab.random (Ee_util.Prng.create 8) 8 in
            fun () -> ignore (Ee_core.Trigger.extract f)));
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
