let select ?options pl ~budget =
  if budget < 0 then invalid_arg "Budget.select: negative budget";
  let choices = Synth.plan ?options pl in
  let ranked =
    List.stable_sort
      (fun (a : Synth.gate_choice) b ->
        match compare b.Synth.cost a.Synth.cost with
        | 0 -> compare a.Synth.master b.Synth.master
        | c -> c)
      choices
  in
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: take (k - 1) rest
  in
  (* Re-sort by master id so insertion order is independent of cost. *)
  List.sort
    (fun (a : Synth.gate_choice) b -> compare a.Synth.master b.Synth.master)
    (take budget ranked)

let run ?options pl ~budget = Synth.attach ~share:false pl (select ?options pl ~budget)

let pareto ?options ?(vectors = 100) ?(seed = 2002) pl ~budgets =
  List.map
    (fun budget ->
      let pl', report = run ?options pl ~budget in
      let r = Ee_sim.Sim.run_random pl' ~vectors ~seed in
      (budget, report.Synth.area_increase_percent, r.Ee_sim.Sim.avg_settle_time))
    budgets
