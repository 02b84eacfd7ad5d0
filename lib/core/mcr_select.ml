module Pl = Ee_phased.Pl
module Lut4 = Ee_logic.Lut4
module Throughput = Ee_perf.Throughput

type options = {
  min_gain_percent : float;
  min_coverage : float;
  max_pairs : int option;
  gate_delay : float;
  ee_overhead : float;
}

let default_options =
  {
    min_gain_percent = 0.1;
    min_coverage = 0.;
    max_pairs = None;
    gate_delay = Ee_phased.Timing.default.gate_delay;
    ee_overhead = Ee_phased.Timing.default.ee_overhead;
  }

let request_of (c : Trigger.candidate) cost =
  {
    Pl.req_support = c.Trigger.subset;
    req_func = c.Trigger.func;
    req_coverage = c.Trigger.coverage;
    req_cost = cost;
  }

(* Candidates that could help at all, with the Eq. 1 bookkeeping Synth
   records (arrival-weighted cost, Mmax/Tmax) for comparability. *)
let viable_choices options ?memo pl master func fanin =
  let arrivals = Array.map (fun f -> Pl.arrival pl f) fanin in
  let support = Lut4.support func in
  let m_max =
    Ee_util.Bits.fold_bits support (fun acc p -> max acc arrivals.(p)) 0
  in
  if m_max = 0 then []
  else
    Trigger.candidates ?memo func
    |> List.filter_map (fun cand ->
           let t_max =
             Ee_util.Bits.fold_bits cand.Trigger.subset
               (fun acc p -> max acc arrivals.(p))
               0
           in
           if
             Cost.speedup_possible ~m_max ~t_max
             && cand.Trigger.coverage >= options.min_coverage
           then
             let cost =
               Cost.cost Cost.Arrival_weighted ~coverage:cand.Trigger.coverage
                 ~m_max ~t_max
             in
             Some { Synth.master; chosen = cand; m_max; t_max; cost }
           else None)

let analyze options pl =
  Throughput.analyze ~gate_delay:options.gate_delay
    ~ee_overhead:options.ee_overhead pl

let lambda ?warm ?cutoff options pl =
  Throughput.lambda ~gate_delay:options.gate_delay
    ~ee_overhead:options.ee_overhead ?warm ?cutoff pl

let plan ?(options = default_options) ?memo pl =
  let gates = Pl.gates pl in
  let budget_left inserted =
    match options.max_pairs with
    | Some k -> List.length inserted < k
    | None -> true
  in
  let rec round pl_cur inserted =
    if not (budget_left inserted) then inserted
    else begin
      let a, r =
        Throughput.round ~gate_delay:options.gate_delay ~ee_overhead:options.ee_overhead pl_cur
      in
      let period = a.Throughput.lambda in
      if period <= 0. then inserted
      else begin
        (* Only masters that constrain the period can improve it: original
           combinational gates, still trigger-less, with (near-)zero slack
           in the current event graph. *)
        let eligible = ref [] in
        Array.iteri
          (fun i g ->
            match g.Pl.kind with
            | Pl.Gate func
              when Pl.ee pl_cur i = None
                   && a.Throughput.gate_slack.(i) <= 1e-7 *. period ->
                eligible := (i, func, g.Pl.fanin) :: !eligible
            | _ -> ())
          gates;
        let target = period *. (1. -. (options.min_gain_percent /. 100.)) in
        (* Certificate: attaching a trigger to a master off the critical
           cycle leaves that cycle, weights and tokens, in the trial graph,
           so the trial's period is at least [period]; it cannot win unless
           the threshold reaches [period], less a margin for rounding. *)
        let on_cycle = Array.make (Array.length (Pl.gates pl_cur)) false in
        List.iter (fun g -> on_cycle.(g) <- true) a.Throughput.critical_gates;
        let best = ref None in
        List.iter
          (fun (master, func, fanin) ->
            List.iter
              (fun choice ->
                (* A trial wins with a period at most [threshold] (below it,
                   once there is an incumbent); the solve of one that
                   cannot win stops early. *)
                let threshold =
                  match !best with Some (_, l) -> l -. 1e-12 | None -> target
                in
                if on_cycle.(master) || period *. (1. -. 1e-9) <= threshold then begin
                  let lambda' =
                    Throughput.trial_lambda ~cutoff:threshold r master
                      (request_of choice.Synth.chosen choice.Synth.cost)
                  in
                  let beats =
                    if Option.is_none !best then lambda' <= threshold else lambda' < threshold
                  in
                  if beats then best := Some (choice, lambda')
                end)
              (viable_choices options ?memo pl_cur master func fanin))
          (List.rev !eligible)
        (* eligible was built backwards; restore ascending master order so
           ties resolve deterministically toward the lowest gate id. *);
        match !best with
        | None -> inserted
        | Some (choice, _) ->
            let pl_next =
              Pl.with_ee pl_cur
                [ (choice.Synth.master, request_of choice.Synth.chosen choice.Synth.cost) ]
            in
            round pl_next (choice :: inserted)
      end
    end
  in
  round pl [] |> List.sort (fun a b -> compare a.Synth.master b.Synth.master)

let run ?(options = default_options) ?memo pl =
  let gates = Pl.gates pl in
  let eligible =
    Array.fold_left
      (fun acc g -> match g.Pl.kind with Pl.Gate _ -> acc + 1 | _ -> acc)
      0 gates
  in
  let choices = plan ~options ?memo pl in
  let requests =
    List.map
      (fun c -> (c.Synth.master, request_of c.Synth.chosen c.Synth.cost))
      choices
  in
  let pl' = Pl.with_ee pl requests in
  let pl_gates = Pl.pl_gate_count pl' in
  let ee_gates = Pl.ee_gate_count pl' in
  ( pl',
    {
      Synth.eligible_gates = eligible;
      inserted = choices;
      pl_gates;
      ee_gates;
      area_increase_percent =
        Ee_util.Stats.ratio_percent ~part:(float_of_int ee_gates)
          ~whole:(float_of_int pl_gates);
    } )
