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
  ?warm:Ee_perf.Throughput.analysis ->
  ?cutoff:float ->
  options ->
  Ee_phased.Pl.t ->
  float
(** The period alone under the options' timing model
    ({!Ee_perf.Throughput.lambda}) of a whole netlist: the trial oracle of
    [Ee_search.Search_select], whose trials replace several pairs at once.
    [warm] is the analysis of the netlist the trial extends; it only
    speeds the solve up.  [cutoff] is the value a
    trial must reach to win: the result is exact when it is at most
    [cutoff], and otherwise some value in [(cutoff, lambda]], so the
    solve of a losing trial stops early without changing the verdict. *)

val plan :
  ?options:options -> ?memo:Trigger.Memo.t -> Ee_phased.Pl.t -> Synth.gate_choice list
(** Greedy selection as described above; master ids ascending.  The [cost]
    field records the Equation-1 (arrival-weighted) cost of the chosen
    candidate for comparability, but plays no part in the selection.
    [memo] is the trigger-candidate cache to consult and fill (default:
    the calling domain's {!Trigger.Memo.domain_default}).

    {b Trials ruled out by certificate.}  A trial wins only with a period
    at most its [threshold]: the round's target
    [lambda * (1 - min_gain_percent / 100)] while no trial has won, then
    the best period so far less 1e-12.  [Pl.with_ee] appends the trigger
    after every existing gate, and {!Ee_perf.Timed_graph.of_pl} then
    changes only arcs that touch the master's or the trigger's events.  So
    when the master is not among the round analysis's [critical_gates],
    the critical cycle survives in the trial graph with the same weights
    and tokens, and the trial's period is at least [lambda].  [plan] skips
    such a trial, without building it, whenever
    [lambda * (1 - 1e-9) > threshold] (the margin absorbs rounding).  With
    [min_gain_percent <= 0] the threshold is at least [lambda] and nothing
    is skipped.  The trials that remain pass [threshold] as the cutoff of
    their solve (that of {!lambda}), so a losing one stops early.  Neither step changes the plan:
    every skipped or stopped trial would have lost.

    {b Trials as deltas.}  Each round compiles the current netlist once
    ({!Ee_perf.Throughput.round}: its event graph, the graph's rows and
    its token-free check) and solves every trial as a change to it
    ({!Ee_perf.Throughput.trial_lambda}): the arcs owned by the master,
    its consumers and the new trigger, emitted by the same firing rule as
    {!Ee_perf.Timed_graph.of_pl}, with Howard warm-started from the
    round's converged policy.  A losing trial builds no netlist and no
    event graph; [Pl.with_ee] runs once per round, for the winner.  The
    λ of a trial, and so every verdict, is the one {!lambda} gives on the
    trial netlist, so the plan is unchanged. *)

val run :
  ?options:options ->
  ?memo:Trigger.Memo.t ->
  Ee_phased.Pl.t ->
  Ee_phased.Pl.t * Synth.report
(** [plan], then attach the pairs with [Pl.with_ee]; the report counts
    eligible gates and area exactly like {!Synth.run} so rows from either
    policy are directly comparable. *)
