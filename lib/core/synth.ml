module Pl = Ee_phased.Pl
module Lut4 = Ee_logic.Lut4

type options = {
  threshold : float;
  weighting : Cost.weighting;
  min_coverage : float;
  share_triggers : bool;
}

let default_options =
  {
    threshold = 0.;
    weighting = Cost.Arrival_weighted;
    min_coverage = 0.;
    share_triggers = false;
  }

type gate_choice = {
  master : int;
  chosen : Trigger.candidate;
  m_max : int;
  t_max : int;
  cost : float;
}

type report = {
  eligible_gates : int;
  inserted : gate_choice list;
  pl_gates : int;
  ee_gates : int;
  area_increase_percent : float;
}

(* Arrival of each fanin signal of [master]: producing gate's level + 1
   (see [Pl.arrival]). *)
let fanin_arrivals pl fanin = Array.map (fun f -> Pl.arrival pl f) fanin

let best_choice options ?memo pl master func fanin =
  let arrivals = fanin_arrivals pl fanin in
  let support = Lut4.support func in
  (* Only positions that are actually connected and in the support matter;
     arrival of the latest *relevant* master input: *)
  let m_max =
    Ee_util.Bits.fold_bits support (fun acc p -> max acc arrivals.(p)) 0
  in
  if m_max = 0 then None
  else
    let consider best cand =
      let t_max =
        Ee_util.Bits.fold_bits cand.Trigger.subset (fun acc p -> max acc arrivals.(p)) 0
      in
      if not (Cost.speedup_possible ~m_max ~t_max) then best
      else if cand.Trigger.coverage < options.min_coverage then best
      else
        let cost = Cost.cost options.weighting ~coverage:cand.Trigger.coverage ~m_max ~t_max in
        if cost <= options.threshold then best
        else
          match best with
          | Some b when b.cost >= cost -> best
          | _ -> Some { master; chosen = cand; m_max; t_max; cost }
    in
    List.fold_left consider None (Trigger.candidates ?memo func)

let plan ?(options = default_options) ?memo pl =
  let gates = Pl.gates pl in
  let out = ref [] in
  Array.iteri
    (fun i g ->
      match g.Pl.kind with
      | Pl.Gate func when Pl.ee pl i = None -> (
          match best_choice options ?memo pl i func g.Pl.fanin with
          | Some choice -> out := choice :: !out
          | None -> ())
      | _ -> ())
    gates;
  List.rev !out

let request (c : Trigger.candidate) cost =
  {
    Pl.req_support = c.Trigger.subset;
    req_func = c.Trigger.func;
    req_coverage = c.Trigger.coverage;
    req_cost = cost;
  }

let make_report pl pl' choices =
  let eligible_gates =
    Array.fold_left
      (fun acc g -> match g.Pl.kind with Pl.Gate _ -> acc + 1 | _ -> acc)
      0 (Pl.gates pl)
  in
  let pl_gates = Pl.pl_gate_count pl' in
  let ee_gates = Pl.ee_gate_count pl' in
  {
    eligible_gates;
    inserted = choices;
    pl_gates;
    ee_gates;
    area_increase_percent =
      Ee_util.Stats.ratio_percent ~part:(float_of_int ee_gates)
        ~whole:(float_of_int pl_gates);
  }

let attach ~share pl choices =
  let requests = List.map (fun c -> (c.master, request c.chosen c.cost)) choices in
  let pl' = (if share then Pl.with_ee_shared else Pl.with_ee) pl requests in
  (pl', make_report pl pl' choices)

let run ?(options = default_options) ?memo pl =
  attach ~share:options.share_triggers pl (plan ~options ?memo pl)
