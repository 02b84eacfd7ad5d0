module Synth = Ee_core.Synth
module Pl = Ee_phased.Pl
module Trigger = Ee_core.Trigger
module Netlist = Ee_netlist.Netlist
module Lut4 = Ee_logic.Lut4

let carry_chain_netlist n =
  (* A ripple of carry gates: maj(a_i, b_i, carry_{i-1}). *)
  let b = Netlist.builder () in
  let a = Array.init n (fun i -> Netlist.add_input b (Printf.sprintf "a%d" i)) in
  let bb = Array.init n (fun i -> Netlist.add_input b (Printf.sprintf "b%d" i)) in
  let cin = Netlist.add_input b "cin" in
  let carry = ref cin in
  for i = 0 to n - 1 do
    carry := Netlist.add_lut b Trigger.full_adder_carry [| !carry; bb.(i); a.(i) |]
  done;
  Netlist.set_output b "cout" !carry;
  Netlist.finalize b

let test_plan_on_carry_chain () =
  let pl = Pl.of_netlist (carry_chain_netlist 6) in
  let choices = Synth.plan pl in
  (* All but the first stage can early-evaluate (the first has uniform
     arrivals). *)
  Alcotest.(check int) "five pairs" 5 (List.length choices);
  List.iter
    (fun (c : Synth.gate_choice) ->
      Alcotest.(check bool) "Tmax < Mmax" true (c.Synth.t_max < c.Synth.m_max);
      Alcotest.(check (float 1e-9)) "coverage 50" 50. c.Synth.chosen.Trigger.coverage;
      (* Chosen subset is the {a,b} pair — positions 1 and 2. *)
      Alcotest.(check int) "subset {1,2}" 0b110 c.Synth.chosen.Trigger.subset)
    choices

let test_cost_increases_down_the_chain () =
  let pl = Pl.of_netlist (carry_chain_netlist 6) in
  let costs = List.map (fun c -> c.Synth.cost) (Synth.plan pl) in
  let rec ascending = function
    | a :: (b :: _ as rest) -> a < b && ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "later stages score higher" true (ascending costs)

let test_threshold_prunes () =
  let pl = Pl.of_netlist (carry_chain_netlist 6) in
  let count threshold =
    List.length (Synth.plan ~options:{ Synth.default_options with threshold } pl)
  in
  Alcotest.(check int) "threshold 0 keeps all" 5 (count 0.);
  Alcotest.(check bool) "higher threshold keeps fewer" true (count 200. < 5);
  Alcotest.(check int) "huge threshold keeps none" 0 (count 1e9)

let test_threshold_monotone () =
  let b = Ee_bench_circuits.Itc99.find "b05" in
  let nl = Ee_rtl.Techmap.run_rtl (b.Ee_bench_circuits.Itc99.build ()) in
  let pl = Pl.of_netlist nl in
  let counts =
    List.map
      (fun threshold ->
        List.length (Synth.plan ~options:{ Synth.default_options with threshold } pl))
      [ 0.; 25.; 100.; 400. ]
  in
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b && non_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone pruning" true (non_increasing counts)

let test_min_coverage_filter () =
  let pl = Pl.of_netlist (carry_chain_netlist 4) in
  let choices =
    Synth.plan ~options:{ Synth.default_options with min_coverage = 60. } pl
  in
  Alcotest.(check int) "nothing reaches 60% on maj gates" 0 (List.length choices)

let test_run_report_consistency () =
  let pl = Pl.of_netlist (carry_chain_netlist 5) in
  let pl_ee, report = Synth.run pl in
  Alcotest.(check int) "ee gates = inserted" (List.length report.Synth.inserted)
    report.Synth.ee_gates;
  Alcotest.(check int) "ee gates in netlist" report.Synth.ee_gates (Pl.ee_gate_count pl_ee);
  Alcotest.(check int) "pl gates preserved" (Pl.pl_gate_count pl) report.Synth.pl_gates;
  let expected_area =
    100. *. float_of_int report.Synth.ee_gates /. float_of_int report.Synth.pl_gates
  in
  Alcotest.(check (float 1e-9)) "area percent" expected_area report.Synth.area_increase_percent;
  (* Masters are unique. *)
  let masters = List.map (fun c -> c.Synth.master) report.Synth.inserted in
  Alcotest.(check int) "unique masters" (List.length masters)
    (List.length (List.sort_uniq compare masters))

let test_function_preserved_on_benchmarks () =
  List.iter
    (fun id ->
      let b = Ee_bench_circuits.Itc99.find id in
      let nl = Ee_rtl.Techmap.run_rtl (b.Ee_bench_circuits.Itc99.build ()) in
      let pl = Pl.of_netlist nl in
      let pl_ee, _ = Synth.run pl in
      Alcotest.(check bool) (id ^ " equivalent") true
        (Ee_sim.Sim.equiv_random pl_ee nl ~vectors:120 ~seed:77))
    [ "b01"; "b03"; "b06"; "b09"; "b11"; "b13" ]

let test_live_safe_preserved () =
  List.iter
    (fun id ->
      let b = Ee_bench_circuits.Itc99.find id in
      let a = Ee_report.Pipeline.build b in
      match Ee_report.Pipeline.check_live_safe a with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg)
    [ "b01"; "b02"; "b05"; "b08"; "b10"; "b12" ]

let test_coverage_only_changes_choices () =
  (* On the carry chain the weighting does not change the winner (only one
     pair subset is viable), but globally the two policies may differ; at
     minimum they must both produce valid plans. *)
  let b = Ee_bench_circuits.Itc99.find "b07" in
  let nl = Ee_rtl.Techmap.run_rtl (b.Ee_bench_circuits.Itc99.build ()) in
  let pl = Pl.of_netlist nl in
  let weighted = Synth.plan pl in
  let coverage_only =
    Synth.plan ~options:{ Synth.default_options with weighting = Ee_core.Cost.Coverage_only } pl
  in
  Alcotest.(check bool) "both non-empty" true
    (weighted <> [] && coverage_only <> []);
  List.iter
    (fun (c : Synth.gate_choice) ->
      Alcotest.(check bool) "eligibility holds regardless" true (c.Synth.t_max < c.Synth.m_max))
    coverage_only

let test_trigger_sharing () =
  (* A ripple chain has many structurally distinct triggers, so build a
     netlist where several masters share the same subset sources: one pair
     (a, b) feeding several carry-style gates at different depths. *)
  let b = Netlist.builder () in
  let a = Netlist.add_input b "a" in
  let bb = Netlist.add_input b "b" in
  let c = Netlist.add_input b "c" in
  let buf = Netlist.add_lut b (Lut4.var 0) [| c |] in
  let late1 = Netlist.add_lut b (Lut4.var 0) [| buf |] in
  let m1 = Netlist.add_lut b Trigger.full_adder_carry [| late1; bb; a |] in
  let m2 = Netlist.add_lut b Trigger.full_adder_carry [| m1; bb; a |] in
  Netlist.set_output b "o1" m1;
  Netlist.set_output b "o2" m2;
  let nl = Netlist.finalize b in
  let pl = Pl.of_netlist nl in
  let unshared_pl, unshared = Synth.run pl in
  let shared_pl, shared =
    Synth.run ~options:{ Synth.default_options with share_triggers = true } pl
  in
  Alcotest.(check int) "two masters" 2 (List.length unshared.Synth.inserted);
  Alcotest.(check int) "unshared: two triggers" 2 unshared.Synth.ee_gates;
  Alcotest.(check int) "shared: one trigger" 1 shared.Synth.ee_gates;
  Alcotest.(check int) "shared report masters" 2 (List.length shared.Synth.inserted);
  (* Function and safety preserved either way. *)
  Alcotest.(check bool) "unshared equivalent" true
    (Ee_sim.Sim.equiv_random unshared_pl nl ~vectors:100 ~seed:5);
  Alcotest.(check bool) "shared equivalent" true
    (Ee_sim.Sim.equiv_random shared_pl nl ~vectors:100 ~seed:5);
  let mg = Ee_phased.Flat.marked_graph (Ee_phased.Flat.of_pl ~caller:"test" shared_pl) in
  Alcotest.(check bool) "shared live+safe" true
    (Ee_markedgraph.Marked_graph.is_live mg && Ee_markedgraph.Marked_graph.is_safe mg);
  (* Same timing: sharing merges identical gates only. *)
  let r1 = Ee_sim.Sim.run_random unshared_pl ~vectors:50 ~seed:9 in
  let r2 = Ee_sim.Sim.run_random shared_pl ~vectors:50 ~seed:9 in
  Alcotest.(check (float 1e-9)) "same avg settle" r1.Ee_sim.Sim.avg_settle_time
    r2.Ee_sim.Sim.avg_settle_time

let test_sharing_on_benchmark () =
  let nl = Ee_rtl.Techmap.run_rtl ((Ee_bench_circuits.Itc99.find "b04").Ee_bench_circuits.Itc99.build ()) in
  let pl = Pl.of_netlist nl in
  let _, unshared = Synth.run pl in
  let shared_pl, shared =
    Synth.run ~options:{ Synth.default_options with share_triggers = true } pl
  in
  Alcotest.(check bool) "sharing never increases triggers" true
    (shared.Synth.ee_gates <= unshared.Synth.ee_gates);
  Alcotest.(check bool) "still equivalent" true
    (Ee_sim.Sim.equiv_random shared_pl nl ~vectors:60 ~seed:3)

let suite =
  ( "synth",
    [
      Alcotest.test_case "plan on carry chain" `Quick test_plan_on_carry_chain;
      Alcotest.test_case "cost increases down the chain" `Quick test_cost_increases_down_the_chain;
      Alcotest.test_case "threshold prunes" `Quick test_threshold_prunes;
      Alcotest.test_case "threshold monotone" `Quick test_threshold_monotone;
      Alcotest.test_case "min coverage filter" `Quick test_min_coverage_filter;
      Alcotest.test_case "run report consistency" `Quick test_run_report_consistency;
      Alcotest.test_case "function preserved (benchmarks)" `Quick test_function_preserved_on_benchmarks;
      Alcotest.test_case "live+safe preserved" `Quick test_live_safe_preserved;
      Alcotest.test_case "coverage-only policy" `Quick test_coverage_only_changes_choices;
      Alcotest.test_case "trigger sharing" `Quick test_trigger_sharing;
      Alcotest.test_case "sharing on benchmark" `Quick test_sharing_on_benchmark;
    ] )
