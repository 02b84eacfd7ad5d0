(** Event-driven streaming simulation of phased-logic netlists.

    {!Sim} serializes waves (the paper's measurement protocol: one vector in
    flight at a time).  Real PL circuits are self-timed pipelines: the
    environment may inject vector [k+1] as soon as the input gates have been
    acknowledged, so several waves travel the netlist simultaneously and the
    interesting figure is the steady-state {e cycle time} per token.

    This module runs the marked-graph token game with real time: every gate
    fires [gate_delay] after its last input token (data, efire and feedback
    acknowledge alike) arrives; an early-evaluation master whose trigger
    token carries 1 emits its output token [ee_overhead] after the trigger
    arrives, then absorbs its late tokens in the background before
    re-arming.  Arc occupancy is monitored: more than one token on an arc
    (a safety violation) raises — so every run is also a dynamic proof of
    marked-graph safety under pipelined operation.

    Output values are checked against the synchronous golden model by the
    test suite: pipelining changes times, never values.  With a single
    vector the run is {!Sim}'s wave: its completion time and outputs equal
    {!Sim.apply}'s bit for bit (also tested). *)

type config = Ee_phased.Timing.t = { gate_delay : float; ee_overhead : float }
(** The same type as {!Sim.config}. *)

val default_config : config
(** {!Ee_phased.Timing.default}, as {!Sim.default_config}. *)

type result = {
  waves : int;  (** Output words collected. *)
  outputs : bool array array;  (** [outputs.(k)] is wave [k]'s output word. *)
  completion_times : float array;  (** When wave [k]'s last output token arrived. *)
  cycle_time : float;
      (** Steady-state inter-completion interval, measured over the second
          half of the run (the first half warms the pipeline up). *)
  makespan : float;  (** Completion time of the last wave. *)
  early_fires : int;  (** Total early master firings during the run. *)
}

exception Unsafe of string
(** Raised if an arc ever holds two tokens — cannot happen for netlists
    produced by [Pl.of_netlist]/[Pl.with_ee] (live & safe by construction),
    so seeing it means a broken netlist transformation. *)

val run :
  ?config:config ->
  ?delays:float array ->
  Ee_phased.Pl.t ->
  vectors:bool array list ->
  result
(** Streams the given input vectors through the netlist as fast as the
    self-timed handshakes allow.  [delays] optionally replaces the uniform
    [config.gate_delay] with a per-gate latency indexed like [Pl.gates] (a
    [Delay_model] schedule); sources, constant generators and sinks fire
    instantaneously either way.  The arcs are {!Ee_phased.Flat}'s slots
    (a data arc and, unless a self-loop, its acknowledge; marked by
    [Flat.token]), held as flat per-slot arrays of token time, value and
    occupancy, with a per-gate count of empty input arcs.  Tokens are
    deposited in descending slot order, which fixes the worklist order and
    so [early_fires] of free-running circuits.  Masters fire by
    {!Ee_phased.Timing}'s rule.  Raises [Invalid_argument] on a
    length mismatch, and [Invalid_argument "Stream_sim.run: ..."] on a
    netlist {!Ee_phased.Flat.of_pl} refuses. *)

val run_random :
  ?config:config ->
  ?delays:float array ->
  Ee_phased.Pl.t ->
  waves:int ->
  seed:int ->
  result

val throughput_gain :
  ?config:config -> Ee_phased.Pl.t -> Ee_phased.Pl.t -> waves:int -> seed:int -> float
(** [throughput_gain pl pl_ee ~waves ~seed] — percent decrease of the
    steady-state cycle time from the first netlist to the second. *)
