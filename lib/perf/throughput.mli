(** Static throughput analysis of phased-logic netlists.

    Bundles {!Timed_graph.of_pl} and {!Mcr.solve} into one per-netlist
    report: the steady-state period (the maximum cycle ratio of the event
    graph), the critical cycle in terms of PL gates, and per-gate slack —
    how much each gate's latency may grow before the period degrades.
    Validated against [Ee_sim.Stream_sim] steady-state measurements by the
    test suite (within 5% on every ITC99 benchmark) and cross-checked by
    Karp's algorithm. *)

type analysis = {
  lambda : float;
      (** Steady-state period: time per wave once the pipeline fills. *)
  throughput : float;
      (** Waves per time unit, [1. /. lambda] ([0.] when the period is 0). *)
  critical_gates : int list;
      (** PL gates on the critical cycle, in cycle order, deduplicated. *)
  critical_string : string;
      (** Human-readable critical cycle, e.g. ["g12>reg3>out:sum>g12"]. *)
  gate_slack : float array;
      (** Per PL gate: a lower bound on how much its latency may grow
          without degrading [lambda] ([infinity] for unconstrained gates). *)
  events : int;  (** Event-graph size (diagnostics). *)
  policy : policy;
      (** The converged Howard policy, keyed by event identity: the gate,
          and whether the event is its early output or its completion. *)
}

and policy

val analyze :
  ?gate_delay:float ->
  ?ee_overhead:float ->
  ?delays:float array ->
  ?mode:Timed_graph.ee_mode ->
  Ee_phased.Pl.t ->
  analysis
(** Parameters as in {!Timed_graph.of_pl}.  Raises [Mcr.Not_live] on a
    netlist whose marked graph is not live (never the case for
    [Pl.of_netlist] outputs). *)

val lambda :
  ?gate_delay:float ->
  ?ee_overhead:float ->
  ?warm:analysis ->
  ?cutoff:float ->
  Ee_phased.Pl.t ->
  float
(** [(analyze pl).lambda] alone, without the critical cycle, the slack
    pass or the per-gate arrays: the cheap oracle for trial re-analysis.
    [warm] starts Howard's iteration from that analysis's policy, carried
    over by {!hint}; it changes only the iteration count, never the result
    (see {!Mcr.solve}).  [cutoff] is {!Mcr.lambda}'s: the result is exact
    when it is at most [cutoff], and otherwise only guaranteed to lie in
    [(cutoff, lambda]] — enough to reject a trial that cannot win. *)

val critical_cycle : ?gate_delay:float -> ?ee_overhead:float -> Ee_phased.Pl.t -> string
(** [(analyze pl).critical_string] from one {!Mcr.solve}, without the
    potentials, the arc slacks or the per-gate arrays. *)

(** {2 Selection rounds}

    A selection round analyses one netlist and then tries many single EE
    pairs on it.  {!round} compiles the netlist's event graph once
    ({!Timed_graph.compile}, {!Mcr.context}); {!trial_lambda} then solves
    each trial as a {!Timed_graph.delta} on it, building no trial netlist
    and no trial event graph. *)

type round

val round :
  ?gate_delay:float ->
  ?ee_overhead:float ->
  ?warm:policy ->
  Ee_phased.Pl.t ->
  analysis * round
(** [analyze pl], field for field, and the round its trials run in.
    [warm] starts the solve from a policy of the netlist [pl] extends by
    one EE pair, such as {!trial_policy} of the trial that became [pl]; it
    changes only the iteration count, never [lambda] (where several cycles
    attain it, [critical_gates] may name another).  Raises [Mcr.Not_live]
    as {!analyze} does. *)

val trial_lambda :
  ?cutoff:float -> round -> int -> Ee_phased.Pl.ee_info_request -> float
(** [trial_lambda r master req]: [lambda ?cutoff (Pl.with_ee pl [(master,
    req)])] under the round's timing model.  It is exact, bit for bit,
    whenever it is at most [cutoff] (by the dyadic weights, λ does not
    depend on event numbering; the test suite holds this on every ITC99
    trial), and otherwise lies in [(cutoff, lambda]], as {!Mcr.lambda}'s
    cutoff contract says.  Raises [Invalid_argument] as
    {!Timed_graph.trial} does.

    Howard starts from the round's converged policy, rerouted around the
    master: the master's data now leave its new output event, so the
    policy cycle through the master's one base event into a consumer
    would break there; when an arc leads from the output event to the
    master's old successor, the nodes that followed the master follow the
    output event instead, and it follows that successor.  A trial that
    loses to, or ties, the round's critical cycle so meets it in its first
    policy evaluation. *)

val trial_cycle : round -> int -> int list option
(** After [trial_lambda r master _]: the gates of the cycle that solve
    stopped at or converged on, in cycle order (a split master appears
    once per event), when the cycle is one of the round's own graph — it
    uses neither of the trial's new events nor the master's event.  Such
    a cycle keeps its weights and tokens in the trial of every master it
    avoids, and in the next round's graph when it avoids the master that
    round inserts; its ratio is at least the value [trial_lambda]
    returned. *)

val trial_policy : round -> int -> policy
(** After [trial_lambda r master _]: that solve's policy, keyed by event
    identity on the trial netlist [Pl.with_ee pl [(master, _)]].  After a
    trial that converged, it is a converged policy of that netlist, fit
    for the [warm] of its {!round}. *)

val hint : analysis -> Timed_graph.mapping -> int array
(** The analysis's policy re-keyed onto the events of [m], a netlist that
    keeps the analysed one's gate ids (such as the analysed netlist with
    one more EE pair): each event takes the successor its gate's matching
    event had.  Events with no counterpart — a new trigger gate, a newly
    split master's early event — get [-1]. *)

val gate_name : Ee_phased.Pl.t -> int -> string
(** Short stable gate label used in [critical_string]: ["in:a"], ["g12"],
    ["reg7"], ["trig9"], ["const3"], ["out:sum"]. *)

val bottlenecks : analysis -> int -> (int * float) list
(** The [k] tightest gates as [(gate, slack)], slack-ascending, critical
    gates first; ties broken by gate id. *)

val predicted_gain : analysis -> analysis -> float
(** [percent_change] between two periods (no-EE vs. EE): positive when the
    second analysis is faster. *)
