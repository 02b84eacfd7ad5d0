(** Default timing of the PL firing rule.

    Every timed model of a PL netlist — the wave simulator, the stream
    simulator, the timed marked graph and the MCR selection — starts from
    these two latencies unless told otherwise. *)

val gate_delay : float
(** Latency of one PL gate firing: 1.0. *)

val ee_overhead : float
(** Extra latency of the EE Muller-C stage on a master (Figure 2): 0.25. *)
