(** Cycle-ratio-driven early-evaluation selection (an alternative to the
    paper's Equation-1 ranking).

    Equation 1 scores a candidate locally — [%Coverage * Mmax / Tmax] says
    how much earlier this one master could fire — but throughput of the
    whole netlist is governed by its maximum cycle ratio, and a master off
    the critical cycle gains nothing however good its trigger looks.  This
    pass closes the loop: each round it analyzes the current netlist with
    {!Ee_perf.Throughput}, considers only masters whose slack is (near)
    zero — the ones that can actually move the period — and inserts the
    candidate whose insertion yields the best {e predicted} period, until
    the predicted improvement falls below [min_gain_percent].

    Compared to Eq. 1 selection it inserts far fewer triggers (only where
    the cycle structure can use them) at a similar predicted speedup; the
    measured comparison is Extension 13 in EXPERIMENTS.md. *)

type options = {
  min_gain_percent : float;
      (** Stop when the best candidate's predicted period improvement drops
          below this (percent of the current period).  Default 0.1. *)
  min_coverage : float;  (** Minimum candidate coverage percent. *)
  max_pairs : int option;  (** Optional cap on inserted EE pairs. *)
  gate_delay : float;  (** Timing model, as {!Ee_perf.Timed_graph.of_pl}. *)
  ee_overhead : float;
}

val default_options : options

val request_of : Trigger.candidate -> float -> Ee_phased.Pl.ee_info_request
(** Package a chosen candidate (plus its recorded Eq. 1 cost) as the
    [Pl.with_ee] attachment request.  Exported for selection policies that
    extend this one (e.g. [Ee_search.Search_select]). *)

val analyze : options -> Ee_phased.Pl.t -> Ee_perf.Throughput.analysis
(** {!Ee_perf.Throughput.analyze} under the options' timing model. *)

val lambda :
  ?warm:Ee_perf.Throughput.analysis -> options -> Ee_phased.Pl.t -> float
(** The period alone under the options' timing model
    ({!Ee_perf.Throughput.lambda}): the trial oracle of {!plan} and of
    [Ee_search.Search_select].  [warm] is the analysis of the netlist the
    trial extends; it only speeds the solve up. *)

val plan :
  ?options:options -> ?memo:Trigger.Memo.t -> Ee_phased.Pl.t -> Synth.gate_choice list
(** Greedy selection as described above; master ids ascending.  The [cost]
    field records the Equation-1 (arrival-weighted) cost of the chosen
    candidate for comparability, but plays no part in the selection.
    [memo] is the trigger-candidate cache to consult and fill (default:
    the calling domain's {!Trigger.Memo.domain_default}). *)

val run :
  ?options:options ->
  ?memo:Trigger.Memo.t ->
  Ee_phased.Pl.t ->
  Ee_phased.Pl.t * Synth.report
(** [plan], then attach the pairs with [Pl.with_ee]; the report counts
    eligible gates and area exactly like {!Synth.run} so rows from either
    policy are directly comparable. *)
