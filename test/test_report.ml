module Tables = Ee_report.Tables
module Pipeline = Ee_report.Pipeline

let test_table1_matches_paper () =
  Alcotest.(check (float 1e-9)) "coverage 50%" 50. (Tables.table1_coverage ());
  let rendered = Ee_util.Table.render (Tables.table1 ()) in
  (* Spot-check two rows of the paper: 011 -> master 1, trigger 0;
     110 -> master 1, trigger 1. *)
  Alcotest.(check bool) "rendered" true (Astring_contains.contains rendered "0 1 1")

let test_table2_totals () =
  let t = Tables.table2 () in
  let csv = Ee_util.Table.to_csv t in
  (* Six prime cubes (3 ON + 3 OFF). *)
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' csv) in
  Alcotest.(check int) "header + six cubes" 7 (List.length lines)

let test_pipeline_artifact () =
  let a = Pipeline.build (Ee_bench_circuits.Itc99.find "b09") in
  Alcotest.(check string) "id" "b09" a.Pipeline.id;
  Alcotest.(check bool) "has ee gates" true
    (a.Pipeline.synth_report.Ee_core.Synth.ee_gates > 0);
  Alcotest.(check int) "baseline has no triggers" 0
    (Ee_phased.Pl.ee_gate_count a.Pipeline.pl);
  Alcotest.(check bool) "live and safe" true (Pipeline.check_live_safe a = Ok ())

let test_row_determinism () =
  let a = Pipeline.build (Ee_bench_circuits.Itc99.find "b05") in
  let r1 = Tables.row_of_artifact ~vectors:50 ~seed:3 a in
  let r2 = Tables.row_of_artifact ~vectors:50 ~seed:3 a in
  Alcotest.(check (float 1e-12)) "same delay" r1.Tables.delay_ee r2.Tables.delay_ee;
  let r3 = Tables.row_of_artifact ~vectors:50 ~seed:4 a in
  Alcotest.(check bool) "documented fields" true
    (r3.Tables.pl_gates = r1.Tables.pl_gates && r3.Tables.ee_gates = r1.Tables.ee_gates)

(* Table 3 as [ee_synth suite] assembles it. *)
let table3 ~vectors ~seed =
  let module Engine = Ee_engine.Engine in
  let spec = Engine.default_spec |> Engine.with_vectors vectors |> Engine.with_seed seed in
  (Engine.run_suite ~spec ()).Engine.table3

let test_table3_shape () =
  (* Few vectors to keep the suite fast; the shape claims must still hold. *)
  let t3 = table3 ~vectors:30 ~seed:2002 in
  Alcotest.(check int) "fifteen rows" 15 (List.length t3.Tables.rows);
  Alcotest.(check bool) "average speedup double digit" true
    (t3.Tables.avg_delay_decrease > 10.);
  Alcotest.(check bool) "average area 20-60%" true
    (t3.Tables.avg_area_increase > 20. && t3.Tables.avg_area_increase < 60.);
  (* Arithmetic-heavy circuits beat the tiny FSM benchmarks. *)
  let dec id =
    (List.find (fun r -> r.Tables.id = id) t3.Tables.rows).Tables.delay_decrease
  in
  Alcotest.(check bool) "b12 gains a lot" true (dec "b12" > 20.);
  Alcotest.(check bool) "b02 gains nothing" true (dec "b02" < 5.);
  (* At least one circuit shows the EE-control-overhead degradation the
     paper reports. *)
  Alcotest.(check bool) "some degradation exists" true
    (List.exists (fun r -> r.Tables.delay_decrease < 0.) t3.Tables.rows)

(* Table 3 at the paper's protocol (100 vectors, seed 2002): the average
   delays of both simulations, pinned bit for bit. *)
let golden_table3 =
  [
    ("b01", 0x1.8p+2, 0x1.5f33333333333p+2);
    ("b02", 0x1p+1, 0x1.1p+1);
    ("b03", 0x1.6p+3, 0x1.07eb851eb851fp+3);
    ("b04", 0x1.1p+4, 0x1.5a147ae147ae1p+3);
    ("b05", 0x1.1p+4, 0x1.459999999999ap+3);
    ("b06", 0x1p+2, 0x1.01c28f5c28f5cp+2);
    ("b07", 0x1.bp+4, 0x1.459999999999ap+4);
    ("b08", 0x1.8p+2, 0x1.868f5c28f5c29p+2);
    ("b09", 0x1.2p+3, 0x1.35eb851eb851fp+2);
    ("b10", 0x1.2p+3, 0x1.ecccccccccccdp+2);
    ("b11", 0x1.1p+4, 0x1.868f5c28f5c29p+3);
    ("b12", 0x1.6p+3, 0x1.8e3d70a3d70a4p+2);
    ("b13", 0x1.4p+3, 0x1.cbae147ae147bp+2);
    ("b14", 0x1p+5, 0x1.aaae147ae147bp+4);
    ("b15", 0x1.5p+5, 0x1.34b3333333333p+5);
  ]

let test_table3_golden () =
  let t3 = table3 ~vectors:100 ~seed:2002 in
  let got =
    List.map (fun r -> (r.Tables.id, r.Tables.delay_no_ee, r.Tables.delay_ee)) t3.Tables.rows
  in
  let show (id, a, b) = Printf.sprintf "%s %h %h" id a b in
  Alcotest.(check (list string)) "delay_no_ee, delay_ee" (List.map show golden_table3)
    (List.map show got)

let test_sweep_monotone_area () =
  let points =
    Ee_report.Sweep.run ~vectors:20 ~seed:1 ~thresholds:[ 0.; 100.; 1e9 ]
      (Ee_bench_circuits.Itc99.find "b05")
  in
  match points with
  | [ p0; p1; p2 ] ->
      Alcotest.(check bool) "area non-increasing" true
        (p0.Ee_report.Sweep.ee_gates >= p1.Ee_report.Sweep.ee_gates
        && p1.Ee_report.Sweep.ee_gates >= p2.Ee_report.Sweep.ee_gates);
      Alcotest.(check int) "infinite threshold: no EE" 0 p2.Ee_report.Sweep.ee_gates;
      Alcotest.(check (float 0.3)) "no EE = baseline delay" 0.
        p2.Ee_report.Sweep.delay_decrease
  | _ -> Alcotest.fail "expected three points"

let test_ablation_rows () =
  let rows = Ee_report.Ablation.run ~vectors:15 ~seed:5 () in
  Alcotest.(check int) "fifteen rows" 15 (List.length rows)

let test_table3_rendering () =
  let t3 = table3 ~vectors:10 ~seed:1 in
  let rendered = Ee_util.Table.render (Tables.table3_to_table t3) in
  Alcotest.(check bool) "has average row" true (Astring_contains.contains rendered "average");
  Alcotest.(check bool) "mentions the Viper row" true
    (Astring_contains.contains rendered "Viper")

let suite =
  ( "report",
    [
      Alcotest.test_case "table1 matches paper" `Quick test_table1_matches_paper;
      Alcotest.test_case "table2 totals" `Quick test_table2_totals;
      Alcotest.test_case "pipeline artifact" `Quick test_pipeline_artifact;
      Alcotest.test_case "row determinism" `Quick test_row_determinism;
      Alcotest.test_case "table3 shape" `Slow test_table3_shape;
      Alcotest.test_case "table3 golden delays" `Quick test_table3_golden;
      Alcotest.test_case "sweep monotone area" `Quick test_sweep_monotone_area;
      Alcotest.test_case "ablation rows" `Quick test_ablation_rows;
      Alcotest.test_case "table3 rendering" `Quick test_table3_rendering;
    ] )
