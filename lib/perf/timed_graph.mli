(** Timed event graphs: the max-plus constraint systems whose maximum cycle
    ratio is the steady-state cycle time of a live-and-safe marked graph.

    An arc [(u, v, w, k)] is the recurrence constraint
    [x_v(n) >= x_u(n - k) + w]: event [v] of wave [n] may happen no earlier
    than [w] time units after event [u] of wave [n - k], where [k] is the
    number of initial tokens on the place between them.  Classical marked
    graph theory (Ramchandani 1973; Baccelli et al., "Synchronization and
    Linearity") gives the asymptotic period of the recurrence as the
    {e maximum cycle ratio} [max_C sum w(C) / sum k(C)] — see {!Mcr}.

    {!of_pl} builds the event graph of a phased logic netlist from
    {!Ee_phased.Flat}'s token graph, mirroring [Ee_sim.Stream_sim]'s
    firing rule — including the early-evaluation path, where a master with
    a trigger is split into an {e output} event (gated by the trigger cone,
    the subset inputs and the consumers' acknowledges) and a
    {e completion} event (gated by all inputs; emits the acknowledges to
    the producers). *)

type arc = { src : int; dst : int; weight : float; tokens : int }

(** The arcs are stored as a structure of arrays: arc [k] runs from
    [arc_src.(k)] to [arc_dst.(k)] with weight [arc_weight.(k)] and
    [arc_tokens.(k)] tokens.  The four arrays have one length. *)
type t = private {
  nodes : int;
  arc_src : int array;
  arc_dst : int array;
  arc_weight : float array;
  arc_tokens : int array;
}

val make : nodes:int -> arcs:arc list -> t
(** Arcs keep their list order.  Raises [Invalid_argument] on
    out-of-range endpoints, negative token counts or non-finite weights. *)

val arc_count : t -> int

(** How the early-evaluation path of an annotated master is modelled.

    - [Guarded]: the trigger never fires — the master is a plain gate whose
      delay carries the C-element overhead.  Upper bound; exact when every
      trigger evaluates to 0.
    - [Eager]: the trigger always fires — the output event waits only for
      the subset inputs, the trigger token and the consumers' acknowledges.
      Lower bound; exact when every trigger evaluates to 1.
    - [Expected p]: heuristic interpolation — the output event keeps all of
      [Eager]'s arcs with weight [ee + (1-p)*delay] and the late inputs
      constrain it with weight [(1-p)*(delay + ee)], where [p master] is
      the probability the master's trigger fires.  Degenerates to [Guarded]
      at [p = 0]; approaches (but, being a worst-case bound over a
      constraint set, never undercuts) [Eager] at [p = 1].  A max-plus
      system cannot express an average of constraint sets, so this is a
      prediction, not a bound. *)
type ee_mode = Guarded | Eager | Expected of (int -> float)

type mapping = {
  graph : t;
  event_gate : int array;  (** Event id -> PL gate id. *)
  event_early : bool array;  (** True for the output event of a split master. *)
  output_event : int array;  (** Gate id -> event stamping its data tokens. *)
  complete_event : int array;  (** Gate id -> event stamping its acknowledges. *)
}

val of_pl :
  ?gate_delay:float ->
  ?ee_overhead:float ->
  ?delays:float array ->
  ?mode:ee_mode ->
  Ee_phased.Pl.t ->
  mapping
(** Event graph of a PL netlist under [Stream_sim]'s timing semantics.
    [gate_delay] and [ee_overhead] default to {!Ee_phased.Timing.default}
    (1.0 and 0.25), as [Stream_sim.default_config] does; [delays] optionally gives
    a per-gate base delay indexed like [Pl.gates] (a [Delay_model]
    schedule — sources, constant generators and sinks are forced to 0, as
    in the simulator).
    [mode] (default [Expected] with [p = coverage/100], the trigger's firing
    probability under uniform inputs) selects the EE model above; on a
    netlist without EE annotations all modes coincide.  The arcs follow
    {!Ee_phased.Flat}'s slots (per gate, its distinct fanins in position
    order, then its trigger) and take their tokens from [Flat.token].
    Raises [Invalid_argument] if [delays] has the wrong length, and
    [Invalid_argument "Timed_graph.of_pl: ..."] on a netlist
    {!Ee_phased.Flat.of_pl} refuses. *)

(** {2 Trials as deltas}

    A selection trial attaches one trigger to one master.  Instead of
    building the trial netlist and its event graph, {!trial} names the
    arcs that change.  The firing rule is written once: {!of_pl} and
    {!trial} emit each (producer, consumer) slot's arcs through the same
    per-slot emitter, so a trial graph carries exactly the arcs {!of_pl}
    would give the trial netlist. *)

type base
(** A netlist compiled for trials: its event graph (as {!of_pl} builds it),
    its flat form and, per consumer gate, the range of arcs its slots
    own. *)

val compile : ?gate_delay:float -> ?ee_overhead:float -> Ee_phased.Pl.t -> base
(** Parameters as in {!of_pl}, under the default [Expected] mode; per-gate
    [delays] are not supported, since a trial's trigger would have none.
    Raises [Invalid_argument "Timed_graph.compile: ..."] on a malformed
    netlist. *)

val mapping : base -> mapping
(** [mapping (compile pl)] is [of_pl pl] under the same parameters. *)

(** The event graph of the base netlist with one more EE pair, as a change
    to the base graph.  The trial graph has [nodes] nodes: the base's
    events keep their numbers, then come the master's new output event
    and the trigger's event.  Its arcs are the base arcs not listed in
    [drop], then those of [add].  The dropped arcs are every arc owned by
    the master and by its consumers; [add] re-emits them under the
    master's new timing, with the master's new trigger slot, and adds the
    trigger's own arcs. *)
type delta = {
  nodes : int;
  output : int;  (** The master's output event ([nodes - 2] from {!trial}). *)
  trigger : int;  (** The trigger's event ([nodes - 1] from {!trial}). *)
  drop : int array;  (** Base arc indices, ascending. *)
  add : t;  (** Over [nodes] nodes. *)
}

val trial : base -> int -> Ee_phased.Pl.ee_info_request -> delta
(** [trial b master req]: the graph of [Pl.with_ee pl [(master, req)]],
    up to event numbering.  Its arc multiset is [of_pl]'s on that netlist
    with each base event renamed to the same gate's event there, [output]
    to the master's output event and [trigger] to the trigger's.  The
    master's trigger fires with probability [req_coverage / 100], and the
    trigger takes [gate_delay].  Builds no netlist: the cost is that of
    the master's, its consumers' and the trigger's slots.  Raises [Invalid_argument] when [master] is not a
    combinational gate without a trigger or [req_support] names a position
    outside its fanin. *)

val splice : t -> delta -> t
(** The trial graph itself: [g]'s arcs not in [drop], in order, then
    [add]'s.  For tests and diagnostics; {!Mcr.splice_lambda} solves a
    delta without building it.  Raises [Invalid_argument] when the delta
    has fewer nodes than [g] or [add] is over another node count. *)

val coverage_probability : Ee_phased.Pl.t -> int -> float
(** The default [Expected] probability: the master's trigger coverage as a
    fraction (clamped to [0..1]), i.e. the chance a uniform random minterm
    lets the subset decide the output. *)
