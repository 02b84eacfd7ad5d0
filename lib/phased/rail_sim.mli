(** Rail-level simulation of phased-logic netlists — Figure 1 executed
    literally.

    Where the token simulators treat a PL gate abstractly, this module keeps
    the actual LEDR wire pair of every signal and the phase bit of every
    gate, and applies the paper's firing rule directly: a gate fires when
    the phase of every input signal (computed as [v XOR t]) differs from
    the gate's own phase; firing latches the LUT4 output into the rail pair
    with the new phase and toggles the gate phase.

    The point of simulating at this level is to witness two facts the token
    abstraction takes on faith:

    - every signal transition flips exactly one of the two rails (the LEDR
      delay-insensitivity property), checked on every firing;
    - an early-evaluation master that fires while its late inputs still
      hold the {e previous} wave's rails nevertheless latches the correct
      value, because the trigger guarantees the function is insensitive to
      those inputs — checked by re-evaluating once the late rails arrive.

    Waves are serialized, as in {!Sim}; this simulator checks values and
    encoding invariants, not timing.

    {b Fault injection.}  The simulator doubles as the execution substrate
    for adversarial campaigns ([Ee_fault]): a {!hooks} record intercepts
    every latch, firing decision and trigger read, so stuck rails, glitches,
    token loss/duplication and trigger-wire corruption are injected into
    the one true simulator rather than a fork of it.  Per-gate round
    {e delays} reorder firings within a wave (the rail-level analogue of a
    delay assignment) without changing which values flow — running the same
    vectors under many adversarial schedules and observing identical
    outputs is the delay-insensitivity claim made executable.

    {b Compiled kernel.}  {!create} runs on the netlist's {!Flat} form — a
    kind code per gate, a CSR fanin table, each master's trigger id and
    support mask, each gate's distinct producers — and inverts the
    producers into a CSR fanout table of combinational consumers
    (trigger->master edges included).  Rail pairs
    (as two-bit codes), gate phases and register state are flat arrays
    too.  The firing fixpoint runs in unit-delay rounds, each deciding
    from a snapshot of the rails which gates fire and then firing them
    together.  A gate can only become enabled when one of its inputs
    changes, so the kernel is event-driven: round 0 evaluates the
    consumers of the gates whose rails carry the new phase once the
    sources and registers have emitted (plus any gate without inputs), and
    a later round the consumers of the gates latched in the round before
    plus the gates still counting down a delay.  The gates of one round
    fire in descending gate id, the order of the record-walking simulator
    this kernel replaced: a latch touches only its own gate's rails, so
    the order shows only in which breach is raised (that of the highest
    gate) and in duplicated firings, which re-read their fanins and are
    processed in sorted order.  Per-wave working storage lives in the
    simulator and is invalidated with stamps, so a healthy wave allocates
    only its result.  Each step of a wave walks a list of gates: every
    gate of the relevant kind for {!apply} on a simulator {!create} or
    {!copy} made, the members of the divergent set for one {!fork} made
    (see {!section-differential}); there is no second kernel.

    {b Hook purity.}  A hook must be a pure function of its arguments: the
    kernel calls it only for the gates and rounds it evaluates, so how
    often, and in which order, a hook is called is unspecified.  A hook
    field physically equal to the one in {!no_hooks} is not called at
    all. *)

type t

(** Instrumentation points, consulted during every wave (see hook purity
    above).  {!no_hooks} makes each a no-op; fault models override
    individual fields. *)
type hooks = {
  on_latch : wave:int -> gate:int -> Ledr.rails -> Ledr.rails;
      (** Transforms the rail pair a firing actually drives.  Returning the
          argument is the healthy path (self-checked LEDR transition); a
          perturbed pair follows wire physics: a double-rail change raises
          {!Protocol_violation}, a suppressed transition starves the
          consumers (later diagnosed by {!Stalled}), and the other legal
          single-rail transition carries a wrong value onward. *)
  drop_fire : wave:int -> gate:int -> bool;
      (** Token loss: [true] suppresses the gate's firing for that wave. *)
  extra_fire : wave:int -> gate:int -> bool;
      (** Token duplication: [true] makes the gate latch a second time in
          the same wave — an observable protocol breach. *)
  trigger_seen : wave:int -> master:int -> bool -> bool;
      (** The trigger-wire value as seen by an EE master (corruption forces
          or suppresses early firing). *)
}

val no_hooks : hooks

val create : ?hooks:hooks -> ?delays:int array -> Pl.t -> t
(** [delays] gives each gate an extra number of fixpoint rounds between
    becoming enabled and firing (default all zero — fire as soon as
    enabled).  Raises [Invalid_argument] on a length mismatch or negative
    delay, and [Invalid_argument "Rail_sim.create: ..."] on a netlist
    {!Flat.of_pl} refuses. *)

val reset : t -> unit
(** Back to the initial state.  A reset simulator no longer records a
    {!trace}, and one {!fork} made runs whole-netlist waves from then on,
    in state arrays of its own (a superseded fork may be reset too). *)

val copy : t -> hooks:hooks -> t
(** [copy t ~hooks] is a simulator in [t]'s current state (rails, gate
    phases, register state and wave count) that injects [hooks] from then
    on, and runs whole-netlist waves even when [t] is a {!fork} (whose
    state it takes from the merged view, see {!section-differential}).  It
    shares [t]'s compiled netlist, delays, deadlock-forensics
    cache and per-wave working storage: [t] and its copies are
    independent between waves, but must not run {!apply} concurrently
    from different domains. *)

(** {!copy}, {!rails}, {!phases} and {!same_state} inspect a simulator
    between waves; on a fork they read the merged view and take time in
    proportion to the netlist, and on a superseded fork they raise
    [Invalid_argument]. *)

val rails : t -> Ledr.rails array
(** The output rail pair of every gate, by gate id (a copy). *)

val phases : t -> Ledr.phase array
(** The phase of every gate's last firing, by gate id (a copy). *)

val same_state : t -> t -> bool
(** [same_state a b] holds when [a] and [b] have applied the same number
    of waves and hold the same rails, gate phases and register state.
    Two simulators of one netlist in the same state with the same delays
    and hooks produce the same future; meaningful for a simulator and its
    copies. *)

exception Protocol_violation of string
(** An observable breach of the LEDR/PL protocol: a gate fired twice in a
    wave, changed both rails at once, latched the wrong phase, presented a
    stale D input to a register, or an early-fired master's value was
    contradicted by its late inputs.  None of these can happen without
    fault hooks for netlists built by [Pl.of_netlist] / [Pl.with_ee] with
    triggers that imply their masters' insensitivity to the late inputs,
    as the EE selection guarantees.  When
    several gates of one round breach the protocol, the message names the
    highest gate id.  After this exception or {!Stalled}, the simulator's
    state is that of an unfinished wave; {!reset} before applying again. *)

(** {1 Deadlock forensics}

    The PL marked graph ({!Flat.marked_graph}), the role of each arc and
    the scratch of the graph's cycle search are built on a simulator's
    first stall and shared with its copies, so diagnosing a stall is a few
    passes over arrays plus one {!Ee_markedgraph.Marked_graph.free_cycle}
    — the search {!Ee_markedgraph.Marked_graph.token_free_cycle} runs —
    whose arc predicate reads each arc's token off the rails and phases
    through its role.  An arc is a register self-loop when it starts and
    ends at one gate, data when its source is a producer of its
    destination, and feedback otherwise. *)

type stall = {
  stall_wave : int;  (** Wave index (0-based) at which the wave stalled. *)
  unfired : int list;  (** Combinational gates that never fired. *)
  waiting_on : (int * int list) list;
      (** Each unfired gate with the fanins (and trigger) still carrying
          the previous wave's phase. *)
  roots : int list;
      (** Unfired gates none of whose stale inputs is itself unfired — the
          gates a fault stopped directly, as opposed to downstream
          victims. *)
  stale_sources : int list;
      (** Gates that did fire but whose output pair never showed the new
          phase: the sites where a stuck rail ate the transition. *)
  blamed_cycle : int list;
      (** A token-free directed cycle of the PL marked graph under the
          stalled marking — the structural reason the wave can never
          complete.  Empty when the stall is not (yet) a marked-graph
          deadlock. *)
}

exception Stalled of stall
(** The firing fixpoint went quiescent with combinational gates unfired: a
    deadlock.  Impossible without fault hooks (the marked graph is live). *)

val stall_to_string : stall -> string

val apply : t -> bool array -> bool array * int
(** [apply t vector] runs one wave with the inputs in source order and
    returns the sink values (sink order) and the number of masters that
    fired early (before all their inputs carried the new phase).
    Raises {!Protocol_violation} or {!Stalled} as described above. *)

(** {1:differential Differential runs}

    A fault campaign runs one fault-free reference and then, per fault, a
    run that differs from it only around the fault.  {!trace} records the
    reference: its state at every wave boundary and, per wave, the round in
    which each gate latched.  {!fork} starts a simulator from a recorded
    wave boundary whose waves evaluate only their {e divergent set}: the
    gates whose rails, phase or register state differ from the trace's at
    the wave's start, plus the fault site while its hooks can act, closed
    under consumers (trigger->master edges included) up to the registers
    and sinks they feed.  Every other gate has the trace's fanin history,
    so under unit delay it latches in the round the trace recorded, with
    the trace's rails: the wave replays those latches for the gates that
    feed the set, runs the round loop of {!apply} over the set, and reads
    a register's D input or a sink's fanin outside the set in the trace's
    end-of-wave state.  Outputs, exceptions, early counts and the
    resulting state are those of a full wave of {!copy} with the same
    hooks.

    {b State ownership.}  A trace owns one state triple (rails, gate
    phases, register state), and its forks work in it one at a time: a
    fork copies nothing, and a new fork of the trace supersedes the
    previous one, which then raises [Invalid_argument] from {!apply},
    {!diverged} and the inspection calls.  In the triple, a gate's entry
    is its own only while the gate is a member of the fork's last wave;
    every other gate is, by construction, in the trace's state at the
    same wave boundary.  A wave loads its other members' state, and its
    feeders' rails, from the trace's wave-start state, and keeps its
    members' end state where it is: no step of {!fork} or of a
    differential wave touches a gate outside the divergent set and its
    feeders, so both cost time and allocation in proportion to those
    alone (plus the sinks, for the outputs).  The fork's {e merged view}
    (members from the triple, every other gate from the trace) is what
    {!copy}, {!rails}, {!phases} and {!same_state} see, and what stall
    forensics read: outside the set nothing is stale or unfired, so the
    stall's gate lists are found among the members. *)

type trace

val trace : t -> trace
(** [trace t] records every wave [t] completes from now on, until {!reset}.
    Raises [Invalid_argument] when [t] has hooks or round delays, or is a
    fork. *)

val traced_rails : trace -> wave:int -> int -> Ledr.rails
(** [traced_rails tr ~wave g]: the rails gate [g] latched in recorded wave
    [wave].  Raises [Invalid_argument] outside the recorded waves. *)

val fork : trace -> wave:int -> site:int -> last:int -> hooks:hooks -> t
(** A simulator in the traced state at the start of wave [wave], injecting
    [hooks], whose waves are differential.  The hooks must act only on gate
    [site] and only up to wave [last]: elsewhere each must behave as in
    {!no_hooks}.  It works in the trace's state and supersedes the
    trace's previous fork (see above), shares the trace's compiled netlist
    and scratch (see {!copy}), and can apply only recorded waves
    ([Invalid_argument] otherwise).  Raises [Invalid_argument] when [wave]
    is not a recorded wave. *)

val diverged : t -> bool
(** Whether a forked simulator's state differs from the trace's at the
    same wave boundary ({!same_state} with the trace's simulator then).
    Raises [Invalid_argument] on a simulator {!fork} did not make, or on a
    superseded fork. *)

val run_check : Pl.t -> Ee_netlist.Netlist.t -> vectors:int -> seed:int -> bool
(** Cross-check rail-level simulation against the synchronous golden model
    on random vectors ({!Ee_netlist.Netlist.agrees_random}). *)
