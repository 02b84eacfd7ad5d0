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
    a cycle of the round's event graph that avoids the master survives in
    the trial graph with the same weights and tokens, and the trial's
    period is at least the cycle's ratio.  [plan] keeps such cycles as
    certificates: the round analysis's critical cycle (ratio [lambda]),
    and every cycle a trial's solve stopped at or converged on that is one
    of the round's graph ({!Ee_perf.Throughput.trial_cycle}), with the
    ratio the solve returned.  A cycle stays valid into the next round
    unless the master inserted there lies on it.  Before building a
    master's candidates, [plan] skips the master whenever a kept cycle
    avoids it with [ratio * (1 - 1e-9) > threshold] (the margin absorbs
    rounding); the threshold cannot fall within a master that runs no
    trial, so this is the per-trial test.  The trials that remain pass [threshold] as the cutoff of their solve (that of
    {!lambda}), so a losing one stops early, and a tying one at its first
    witness cycle when the weights sum exactly (see {!Ee_perf.Mcr.lambda}).
    Neither step changes the plan: every skipped or stopped trial would
    have lost.

    {b Trials as deltas.}  Each round compiles the current netlist once
    ({!Ee_perf.Throughput.round}: its event graph, the graph's rows and
    its token-free check) and solves every trial as a change to it
    ({!Ee_perf.Throughput.trial_lambda}): the arcs owned by the master,
    its consumers and the new trigger, emitted by the same firing rule as
    {!Ee_perf.Timed_graph.of_pl}, with Howard warm-started from the
    round's converged policy rerouted through the master's new output
    event.  A losing trial builds no netlist and no event graph;
    [Pl.with_ee] runs once per round, for the winner, and the next
    round's solve starts from the winning trial's converged policy
    ({!Ee_perf.Throughput.trial_policy}).  The λ of a trial, and so every
    verdict, is the one {!lambda} gives on the trial netlist, so the plan
    is unchanged. *)

val run :
  ?options:options ->
  ?memo:Trigger.Memo.t ->
  Ee_phased.Pl.t ->
  Ee_phased.Pl.t * Synth.report
(** [plan], then {!Synth.attach} without sharing: the report is
    {!Synth.run}'s, so rows from either policy are directly comparable. *)
