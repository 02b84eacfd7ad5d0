(** The timing of the PL firing rule, shared by every timed model: the
    wave and stream simulators, the analytic predictor, the timed marked
    graph and the MCR selection.

    A gate fires one gate delay after its last input token.  An
    early-evaluation master also pays the Muller-C stage of Figure 2: it
    fires at {!guarded}, or at {!early} when its trigger token carries 1
    and that is sooner (it then fires early). *)

type t = {
  gate_delay : float;  (** Latency of one PL gate firing. *)
  ee_overhead : float;  (** Extra latency of the EE Muller-C stage on a master. *)
}

val default : t
(** [gate_delay = 1.0], [ee_overhead = 0.25]. *)

val guarded : t -> delay:float -> float -> float
(** [guarded t ~delay ready] is [ready +. delay +. t.ee_overhead], for a
    master with latency [delay] whose inputs and trigger are in at
    [ready].  As [max (a +. d) (b +. d) = max a b +. d] in IEEE arithmetic,
    this equals adding [delay] to each arrival first. *)

val early : t -> float -> float
(** [early t ready] is [ready +. t.ee_overhead], for a master whose early
    C-element inputs are in at [ready]. *)
