module Pl = Ee_phased.Pl

type analysis = {
  lambda : float;
  throughput : float;
  critical_gates : int list;
  critical_string : string;
  gate_slack : float array;
  events : int;
  policy : policy;
}

and policy = { event_gate : int array; event_early : bool array; succ : int array }

let gate_name pl i =
  match (Pl.gate pl i).Pl.kind with
  | Pl.Source nm -> "in:" ^ nm
  | Pl.Const_source _ -> Printf.sprintf "const%d" i
  | Pl.Gate _ -> Printf.sprintf "g%d" i
  | Pl.Register _ -> Printf.sprintf "reg%d" i
  | Pl.Trigger _ -> Printf.sprintf "trig%d" i
  | Pl.Sink nm -> "out:" ^ nm

(* Event cycle -> gate cycle: collapse the output/completion events of a
   split master into one entry. *)
let critical_gates (m : Timed_graph.mapping) cycle =
  let gates =
    List.fold_left
      (fun acc ev ->
        let gate = m.Timed_graph.event_gate.(ev) in
        match acc with prev :: _ when prev = gate -> acc | _ -> gate :: acc)
      [] cycle
    |> List.rev
  in
  (* The collapse above can leave the closing gate duplicated at the front
     and back of the cycle. *)
  match gates with
  | first :: _ ->
      let rec drop_last = function
        | [ last ] when last = first -> []
        | [] -> []
        | x :: tl -> x :: drop_last tl
      in
      if List.length gates > 1 then drop_last gates else gates
  | [] -> []

let critical_string pl = function
  | [] -> "-"
  | first :: _ as gates -> String.concat ">" (List.map (gate_name pl) (gates @ [ first ]))

(* The report of [pl] from its event graph [m], compiled as [ctx]. *)
let report ?hint pl (m : Timed_graph.mapping) ctx =
  let g = m.Timed_graph.graph in
  let n_gates = Array.length (Pl.gates pl) in
  let policy succ =
    { event_gate = m.Timed_graph.event_gate; event_early = m.Timed_graph.event_early; succ }
  in
  match Mcr.solve_in ?hint ctx with
  | None ->
      {
        lambda = 0.;
        throughput = 0.;
        critical_gates = [];
        critical_string = "-";
        gate_slack = Array.make n_gates infinity;
        events = g.Timed_graph.nodes;
        policy = policy [||];
      }
  | Some { Mcr.lambda; cycle; policy = succ; _ } ->
      let critical_gates = critical_gates m cycle in
      (* Gate slack: a gate's latency appears as the weight of every arc
         into its events, so the margin before it disturbs the period is at
         least the smallest slack among those arcs. *)
      let slacks = Mcr.arc_slacks_in ctx ~lambda in
      let gate_slack = Array.make n_gates infinity in
      Array.iteri
        (fun ai dst ->
          let gate = m.Timed_graph.event_gate.(dst) in
          if slacks.(ai) < gate_slack.(gate) then gate_slack.(gate) <- slacks.(ai))
        g.Timed_graph.arc_dst;
      {
        lambda;
        throughput = (if lambda > 0. then 1. /. lambda else 0.);
        critical_gates;
        critical_string = critical_string pl critical_gates;
        gate_slack;
        events = g.Timed_graph.nodes;
        policy = policy succ;
      }

let analyze ?gate_delay ?ee_overhead ?delays ?mode pl =
  let m = Timed_graph.of_pl ?gate_delay ?ee_overhead ?delays ?mode pl in
  report pl m (Mcr.context m.Timed_graph.graph)

let critical_cycle ?gate_delay ?ee_overhead pl =
  let m = Timed_graph.of_pl ?gate_delay ?ee_overhead pl in
  match Mcr.solve m.Timed_graph.graph with
  | None -> "-"
  | Some r -> critical_string pl (critical_gates m r.Mcr.cycle)

(* A policy re-keyed onto the events of [m]: each event takes the
   successor its gate's matching event had. *)
let hint_of p (m : Timed_graph.mapping) =
  let n_gates = Array.length m.Timed_graph.output_event in
  let event e =
    let g = p.event_gate.(e) in
    if g >= n_gates then -1
    else if p.event_early.(e) then m.Timed_graph.output_event.(g)
    else m.Timed_graph.complete_event.(g)
  in
  let hint = Array.make m.Timed_graph.graph.Timed_graph.nodes (-1) in
  Array.iteri
    (fun e s ->
      if s >= 0 then
        let e' = event e in
        if e' >= 0 then hint.(e') <- event s)
    p.succ;
  hint

let hint a m = hint_of a.policy m

(* [hint] is the round's converged policy over a trial's nodes (the base
   events, then the two a trial appends), which [trial_lambda] reroutes
   around each trial's master and then restores. *)
type round = {
  base : Timed_graph.base;
  mapping : Timed_graph.mapping;
  context : Mcr.context;
  succ : int array;
  hint : int array;
}

let round ?gate_delay ?ee_overhead ?warm pl =
  let base = Timed_graph.compile ?gate_delay ?ee_overhead pl in
  let m = Timed_graph.mapping base in
  let context = Mcr.context m.Timed_graph.graph in
  let a = report ?hint:(Option.map (fun p -> hint_of p m) warm) pl m context in
  let succ = a.policy.succ in
  (a, { base; mapping = m; context; succ; hint = Array.append succ [| -1; -1 |] })

(* The master's data leave its new output event in the trial, so a policy
   cycle that ran through the master's one base event into a consumer is
   broken there.  The hint carries it over the output event instead: each
   node that followed the master and has an arc into the output event now
   follows that event, and the output event follows the master's old
   successor, when an arc leads there. *)
let reroute r master (d : Timed_graph.delta) =
  let ev = r.mapping.Timed_graph.complete_event.(master) and a = d.Timed_graph.add in
  let next = r.succ.(ev) and output = d.Timed_graph.output in
  let arcs = Timed_graph.arc_count a in
  let reaches = ref false in
  for k = 0 to arcs - 1 do
    if a.Timed_graph.arc_src.(k) = output && a.Timed_graph.arc_dst.(k) = next then reaches := true
  done;
  if !reaches then begin
    r.hint.(output) <- next;
    for k = 0 to arcs - 1 do
      let u = a.Timed_graph.arc_src.(k) in
      if a.Timed_graph.arc_dst.(k) = output && u < output && r.succ.(u) = ev then
        r.hint.(u) <- output
    done
  end

(* [reroute]'s inverse, whether or not it rerouted. *)
let unroute r (d : Timed_graph.delta) =
  let a = d.Timed_graph.add and output = d.Timed_graph.output in
  r.hint.(output) <- -1;
  for k = 0 to Timed_graph.arc_count a - 1 do
    let u = a.Timed_graph.arc_src.(k) in
    if a.Timed_graph.arc_dst.(k) = output && u < output then r.hint.(u) <- r.succ.(u)
  done

let trial_lambda ?cutoff r master req =
  let d = Timed_graph.trial r.base master req in
  reroute r master d;
  match Mcr.splice_lambda ~hint:r.hint ?cutoff r.context d with
  | l ->
      unroute r d;
      Option.value ~default:0. l
  | exception e ->
      unroute r d;
      raise e

let trial_cycle r master =
  let m = r.mapping in
  let base_nodes = m.Timed_graph.graph.Timed_graph.nodes in
  match Mcr.trial_cycle r.context with
  | [] -> None
  | cycle ->
      if
        List.for_all
          (fun e -> e < base_nodes && m.Timed_graph.event_gate.(e) <> master)
          cycle
      then Some (List.map (Array.get m.Timed_graph.event_gate) cycle)
      else None

let trial_policy r master =
  let m = r.mapping in
  let trigger = Array.length m.Timed_graph.output_event in
  (* [Timed_graph.trial] appends the master's output event, then the
     trigger's one event. *)
  let extend a out trig = Array.append a [| out; trig |] in
  {
    event_gate = extend m.Timed_graph.event_gate master trigger;
    event_early = extend m.Timed_graph.event_early true false;
    succ = Mcr.trial_policy r.context;
  }

let lambda ?gate_delay ?ee_overhead ?warm ?cutoff pl =
  let m = Timed_graph.of_pl ?gate_delay ?ee_overhead pl in
  let hint = Option.map (fun a -> hint a m) warm in
  Option.value ~default:0. (Mcr.lambda ?hint ?cutoff m.Timed_graph.graph)

let bottlenecks a k =
  let critical i = List.mem i a.critical_gates in
  (* Quantize so that float noise between equally-tight gates does not
     defeat the critical-first tie-break. *)
  let q s = Float.round (s *. 1e9) in
  let ranked =
    Array.to_list (Array.mapi (fun i s -> (i, s)) a.gate_slack)
    |> List.filter (fun (_, s) -> Float.is_finite s)
    |> List.sort (fun (i1, s1) (i2, s2) ->
           match Float.compare (q s1) (q s2) with
           | 0 -> (
               match compare (critical i2) (critical i1) with
               | 0 -> compare i1 i2
               | c -> c)
           | c -> c)
  in
  List.filteri (fun i _ -> i < k) ranked

let predicted_gain before after =
  Ee_util.Stats.percent_change ~before:before.lambda ~after:after.lambda
