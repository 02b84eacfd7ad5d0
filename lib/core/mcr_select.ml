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

(* Cycle certificates.  A cycle of the round's event graph that avoids a
   master's events keeps its weights and tokens in that master's trial
   graph ([Pl.with_ee] appends the trigger after every gate, and a trial
   changes only arcs touching the master's and the trigger's events), so
   the trial's period is at least the cycle's ratio; it cannot win unless
   the threshold reaches that ratio, less a margin for rounding.  A cycle
   also survives into the next round unless the master inserted there is
   on it.  Each cycle is kept as its distinct gates; [held] counts the
   cycles whose ratio clears [threshold] and [through], per gate, those of
   them through it, so a master is skipped exactly when
   [held > through.(master)]. *)
type certificates = {
  mutable cycles : (int array * float) list;
  mutable held : int;
  mutable through : int array;
  mutable threshold : float;
  mutable seen : int array;  (* per gate: the stamp of the cycle listing it *)
  mutable stamp : int;
}

let clears threshold ratio = ratio *. (1. -. 1e-9) > threshold

let hold c (gates, ratio) =
  if clears c.threshold ratio then begin
    c.held <- c.held + 1;
    Array.iter (fun g -> c.through.(g) <- c.through.(g) + 1) gates
  end

(* A new round over [gates] gates, with no threshold yet. *)
let restart c ~gates =
  c.held <- 0;
  c.through <- Array.make gates 0;
  c.threshold <- infinity;
  if Array.length c.seen < gates then c.seen <- Array.make gates 0

(* Whether a kept cycle avoiding [master] rules its trials out at
   [threshold]; the counts are redone when the threshold moves, once per
   winning trial. *)
let skips c master threshold =
  if threshold <> c.threshold then begin
    c.threshold <- threshold;
    c.held <- 0;
    Array.fill c.through 0 (Array.length c.through) 0;
    List.iter (hold c) c.cycles
  end;
  c.held > c.through.(master)

let keep c gates ratio =
  c.stamp <- c.stamp + 1;
  let distinct =
    List.filter (fun g -> c.seen.(g) <> c.stamp && (c.seen.(g) <- c.stamp; true)) gates
  in
  let cycle = (Array.of_list distinct, ratio) in
  c.cycles <- cycle :: c.cycles;
  hold c cycle

let plan ?(options = default_options) ?memo pl =
  let gates = Pl.gates pl in
  let budget_left inserted =
    match options.max_pairs with
    | Some k -> List.length inserted < k
    | None -> true
  in
  let certs =
    { cycles = []; held = 0; through = [||]; threshold = infinity; seen = [||]; stamp = 0 }
  in
  let rec round ?warm pl_cur inserted =
    if not (budget_left inserted) then inserted
    else begin
      let a, r =
        Throughput.round ~gate_delay:options.gate_delay ~ee_overhead:options.ee_overhead ?warm
          pl_cur
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
        (* The round's critical cycle is the first certificate. *)
        restart certs ~gates:(Array.length (Pl.gates pl_cur));
        keep certs a.Throughput.critical_gates period;
        let best = ref None in
        (* A trial wins with a period at most [threshold] (below it, once
           there is an incumbent); the solve of one that cannot win stops
           early. *)
        let threshold () = match !best with Some (_, l, _) -> l -. 1e-12 | None -> target in
        List.iter
          (fun (master, func, fanin) ->
            (* The threshold cannot fall within a master that runs no
               trial, so one test per master is the per-trial test. *)
            if not (skips certs master (threshold ())) then
              List.iter
                (fun choice ->
                  let threshold = threshold () in
                  let lambda' =
                    Throughput.trial_lambda ~cutoff:threshold r master
                      (Synth.request choice.Synth.chosen choice.Synth.cost)
                  in
                  Option.iter
                    (fun gates -> keep certs gates lambda')
                    (Throughput.trial_cycle r master);
                  let beats =
                    if Option.is_none !best then lambda' <= threshold else lambda' < threshold
                  in
                  if beats then best := Some (choice, lambda', Throughput.trial_policy r master))
                (viable_choices options ?memo pl_cur master func fanin))
          (List.rev !eligible)
        (* eligible was built backwards; restore ascending master order so
           ties resolve deterministically toward the lowest gate id. *);
        match !best with
        | None -> inserted
        | Some (choice, _, warm) ->
            let master = choice.Synth.master in
            certs.cycles <-
              List.filter (fun (gates, _) -> not (Array.mem master gates)) certs.cycles;
            let pl_next =
              Pl.with_ee pl_cur
                [ (master, Synth.request choice.Synth.chosen choice.Synth.cost) ]
            in
            round ~warm pl_next (choice :: inserted)
      end
    end
  in
  round pl [] |> List.sort (fun a b -> compare a.Synth.master b.Synth.master)

let run ?(options = default_options) ?memo pl =
  Synth.attach ~share:false pl (plan ~options ?memo pl)
