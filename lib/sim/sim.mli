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

type config = {
  gate_delay : float;  (** Latency of one PL gate firing (default 1.0). *)
  ee_overhead : float;
      (** Extra latency of the EE Muller-C stage on a master (default
          0.25); responsible for the small degradations in Table 3. *)
}

val default_config : config

type wave = {
  outputs : bool array;  (** Sink values in sink order. *)
  output_time : float;  (** When the output word is stable. *)
  settle_time : float;  (** When every gate has fired (next vector may enter). *)
  early_fires : int;  (** Masters that fired early during this wave. *)
}

type t
(** Mutable simulator instance (holds register state).

    Creation compiles the netlist into flat arrays indexed by gate id: a
    kind code, one int argument (source position, register reset value,
    master's trigger or sink fanin), the LUT4 function, CSR fanins, and the
    register ids with their D fanins.  {!apply} then walks {!Ee_phased.Pl.topo}
    once, packing each gate's LUT index while folding its fanin arrival; per
    wave it allocates only the outputs array and the {!wave} record. *)

val create : ?config:config -> Ee_phased.Pl.t -> t
(** Raises [Invalid_argument "Sim.create: ..."] on a gate or trigger with
    more than 4 fanins, a sink or register without exactly one fanin, or an
    EE master whose trigger id does not name a trigger gate. *)

val create_with_delays : ?config:config -> delays:float array -> Ee_phased.Pl.t -> t
(** Like {!create} but with an explicit firing latency per PL gate (see
    {!Delay_model}); [config.gate_delay] is then only the default the
    array was presumably built from, while [config.ee_overhead] still
    prices the EE control stage. *)

val reset : t -> unit
(** Back to register reset values. *)

val apply : t -> bool array -> wave
(** Run one wave; the vector is in source order (= netlist input order). *)

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
          netlist has no EE). *)
}

val run_random : ?config:config -> Ee_phased.Pl.t -> vectors:int -> seed:int -> run
(** Simulate [vectors] uniformly random input vectors from a fresh reset. *)

val run_vectors : ?config:config -> Ee_phased.Pl.t -> bool array list -> run

val equiv_random :
  Ee_phased.Pl.t -> Ee_netlist.Netlist.t -> vectors:int -> seed:int -> bool
(** Cross-check the PL simulation against the synchronous golden model on
    random vectors (outputs compared every wave). *)
