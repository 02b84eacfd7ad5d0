(** Timed simulation of phased-logic netlists.

    The paper's measurement protocol (§4): apply a stable input vector,
    wait until the output word is stable, record the elapsed time, repeat
    with the next random vector.  Waves are serialized — a new vector is
    only presented after the previous wave has fully settled — exactly the
    "new values cannot be presented until a stable output is generated"
    discipline of PL circuits.

    Firing rule per wave (relative time 0 = input tokens stable):
    - sources, constant generators and registers hold wave-start tokens
      (time 0; a register's value is the token produced by its firing in the
      previous wave);
    - an ordinary combinational gate fires at
      [max (fanin arrival) + gate_delay];
    - a trigger gate is an ordinary gate over its subset inputs;
    - an early-evaluation master pays [ee_overhead] (the extra Muller-C
      stage of Figure 2) on every firing; when its trigger token carries 1
      it may fire at [trigger arrival + ee_overhead] without waiting for
      the late inputs, otherwise it fires at
      [max (fanin arrival, trigger arrival) + gate_delay + ee_overhead];
    - a register fires (produces the next wave's token) at
      [fanin arrival + gate_delay];
    - a sink's token arrives at its fanin's arrival time.

    Early firing never changes a value: when the trigger is 1 the master's
    function is constant over the late inputs, so evaluating with the full
    input vector gives the same result (tested as an invariant). *)

type config = Ee_phased.Timing.t = { gate_delay : float; ee_overhead : float }
(** The one timing record of every timed model; see {!Ee_phased.Timing}. *)

val default_config : config
(** {!Ee_phased.Timing.default}: [gate_delay = 1.0], [ee_overhead = 0.25]. *)

type wave = {
  outputs : bool array;  (** Sink values in sink order. *)
  output_time : float;  (** When the output word is stable. *)
  settle_time : float;  (** When every gate has fired (next vector may enter). *)
  early_fires : int;  (** Masters that fired early during this wave. *)
}

type t
(** Mutable simulator instance (holds register state).

    Creation compiles the netlist into its {!Ee_phased.Flat} form (kind
    codes, one int argument per gate, the LUT4 functions, CSR fanins) and
    adds the register ids and the gate lists below.  A wave is a
    {e value pass} (each gate's LUT index packed from its fanin values)
    followed by a {e time pass} (each gate's fanin arrival), both in
    {!Ee_phased.Pl.topo} order; per wave {!apply} allocates only the
    outputs array and the {!wave} record.  The time pass writes
    {!Ee_phased.Timing}'s master rule out inline rather than calling it:
    the default dune profile compiles every module with [-opaque], so the
    call would never be inlined and would box a float for every master on
    every wave.

    Only data-dependent times are recomputed.  A gate's time is
    {e dynamic} when it is an EE master or reads a dynamic gate (a sink
    reads its fanin); sources, constants and registers start every wave
    at time 0 and cut propagation.  Every other gate fires at the same
    time on every wave, so creation computes those times once and folds
    their settle and output contributions (and those of registers with a
    static D input) into two constants.  The time pass walks only the
    dynamic gates, the registers with a dynamic D input and the dynamic
    sinks; since the max of non-negative times does not depend on the
    fold order, every time is bit-identical to a full walk.

    The value passes differ: {!apply} evaluates every gate, because it
    returns the outputs and backs {!probe}; the [run_*] functions report
    only times and early firings, so they evaluate only the backward
    closure of the masters' triggers over fanins (a register in it pulls
    in its D input).  Without EE both passes of a run are empty. *)

val create : ?config:config -> Ee_phased.Pl.t -> t
(** Raises [Invalid_argument "Sim.create: ..."] on a gate or trigger with
    more than 4 fanins, a sink or register without exactly one fanin, or an
    EE master whose trigger id does not name a trigger gate: the checks of
    {!Ee_phased.Flat.of_pl}, which every timed model shares. *)

val create_with_delays : ?config:config -> delays:float array -> Ee_phased.Pl.t -> t
(** Like {!create} but with an explicit firing latency per PL gate (see
    {!Delay_model}); [config.gate_delay] is then only the default the
    array was presumably built from, while [config.ee_overhead] still
    prices the EE control stage. *)

val reset : t -> unit
(** Back to register reset values. *)

val apply : t -> bool array -> wave
(** Run one wave, evaluating every gate; the vector is in source order
    (= netlist input order).  Raises [Invalid_argument "Sim.apply: wrong
    vector length"]. *)

val probe : t -> bool array * float array
(** Per-gate (value, firing time) of the most recent wave, indexed by PL
    gate id — the hook the VCD dumper uses.  Copies; undefined before the
    first {!apply}. *)

type run = {
  waves : int;
  avg_output_time : float;
  avg_settle_time : float;
  output_times : float array;
  settle_times : float array;
  early_fire_rate : float;
      (** Average fraction of EE masters firing early per wave (0 when the
          netlist has no EE).  Masters sharing one trigger each count, so
          the rate never exceeds 1. *)
}

val run_random : ?config:config -> Ee_phased.Pl.t -> vectors:int -> seed:int -> run
(** Simulate [vectors] uniformly random input vectors from a fresh reset.
    The times are those of {!apply} on the same waves, but only the
    triggers' cone is evaluated; when no source is in it (always, without
    EE), no vector is drawn. *)

val run_vectors : ?config:config -> Ee_phased.Pl.t -> bool array list -> run
(** {!run_random} on the given vectors.  Raises [Invalid_argument
    "Sim.run_vectors: no vectors"] on [[]], and {!apply}'s length error on
    a wrong-length vector even where the cone reads no source. *)

val equiv_random :
  Ee_phased.Pl.t -> Ee_netlist.Netlist.t -> vectors:int -> seed:int -> bool
(** Cross-check the PL simulation against the synchronous golden model on
    random vectors, outputs compared every wave
    ({!Ee_netlist.Netlist.agrees_random}). *)
