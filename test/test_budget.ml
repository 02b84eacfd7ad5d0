module Budget = Ee_core.Budget
module Synth = Ee_core.Synth
module Pl = Ee_phased.Pl

let pl_of id =
  Pl.of_netlist
    (Ee_rtl.Techmap.run_rtl ((Ee_bench_circuits.Itc99.find id).Ee_bench_circuits.Itc99.build ()))

let test_budget_limits_count () =
  let pl = pl_of "b05" in
  let unlimited = List.length (Synth.plan pl) in
  Alcotest.(check bool) "plan non-empty" true (unlimited > 5);
  List.iter
    (fun budget ->
      let chosen = Budget.select pl ~budget in
      Alcotest.(check int) "exactly budget" (min budget unlimited) (List.length chosen))
    [ 0; 1; 3; 10; 10_000 ]

let test_budget_takes_highest_cost () =
  let pl = pl_of "b05" in
  let all = Synth.plan pl in
  let k = 5 in
  let chosen = Budget.select pl ~budget:k in
  let cheapest_chosen =
    List.fold_left (fun acc c -> min acc c.Synth.cost) infinity chosen
  in
  let not_chosen =
    List.filter (fun c -> not (List.exists (fun c' -> c'.Synth.master = c.Synth.master) chosen)) all
  in
  List.iter
    (fun c ->
      Alcotest.(check bool) "skipped cost <= kept cost" true
        (c.Synth.cost <= cheapest_chosen +. 1e-9))
    not_chosen

let test_run_budgeted () =
  let pl = pl_of "b09" in
  let pl', report = Budget.run pl ~budget:4 in
  Alcotest.(check int) "four triggers" 4 (Pl.ee_gate_count pl');
  Alcotest.(check int) "report agrees" 4 report.Synth.ee_gates;
  (* Functionality and safety preserved. *)
  let nl =
    Ee_rtl.Techmap.run_rtl ((Ee_bench_circuits.Itc99.find "b09").Ee_bench_circuits.Itc99.build ())
  in
  Alcotest.(check bool) "still equivalent" true
    (Ee_sim.Sim.equiv_random pl' nl ~vectors:80 ~seed:3);
  let mg = Ee_phased.Flat.marked_graph (Ee_phased.Flat.of_pl ~caller:"test" pl') in
  Alcotest.(check bool) "live+safe" true
    (Ee_markedgraph.Marked_graph.is_live mg && Ee_markedgraph.Marked_graph.is_safe mg)

let test_pareto_monotone_area () =
  let pl = pl_of "b05" in
  let curve = Budget.pareto ~vectors:20 ~seed:1 pl ~budgets:[ 0; 5; 20; 1000 ] in
  let rec check = function
    | (b1, a1, _) :: ((b2, a2, _) :: _ as rest) ->
        Alcotest.(check bool) "budgets ordered" true (b1 <= b2);
        Alcotest.(check bool) "area non-decreasing" true (a1 <= a2 +. 1e-9);
        check rest
    | _ -> ()
  in
  check curve;
  (match curve with
  | (0, a0, d0) :: _ ->
      Alcotest.(check (float 1e-9)) "budget 0 no area" 0. a0;
      let baseline = (Ee_sim.Sim.run_random pl ~vectors:20 ~seed:1).Ee_sim.Sim.avg_settle_time in
      Alcotest.(check (float 1e-9)) "budget 0 = baseline" baseline d0
  | _ -> Alcotest.fail "missing budget 0");
  match List.rev curve with
  | (_, _, d_full) :: _ ->
      let d0 = match curve with (_, _, d) :: _ -> d | [] -> 0. in
      Alcotest.(check bool) "full budget faster than none" true (d_full < d0)
  | [] -> ()

let test_negative_budget () =
  let pl = pl_of "b02" in
  match Budget.select pl ~budget:(-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let suite =
  ( "budget",
    [
      Alcotest.test_case "budget limits count" `Quick test_budget_limits_count;
      Alcotest.test_case "takes highest cost" `Quick test_budget_takes_highest_cost;
      Alcotest.test_case "run budgeted" `Quick test_run_budgeted;
      Alcotest.test_case "pareto monotone" `Quick test_pareto_monotone_area;
      Alcotest.test_case "negative budget" `Quick test_negative_budget;
    ] )
