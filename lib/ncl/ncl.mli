(** NULL Convention Logic baseline (the design style the paper compares
    against in §1).

    NCL encodes every signal on two rails — DATA0, DATA1 or NULL (both
    low) — and computes with threshold gates with hysteresis: a gate
    asserts when its threshold is met and deasserts only when {e all}
    inputs have returned to NULL.  Computation alternates complete DATA
    wavefronts with complete NULL wavefronts, each acknowledged by
    completion detection.

    This module maps a LUT4 netlist to NCL combinational blocks using the
    canonical DIMS construction (Delay-Insensitive Minterm Synthesis): per
    LUT, one C-element (THkk) per input minterm and one OR (TH1n) per
    output rail.  DIMS is {e strongly indicating} — no output rail can
    assert before every input has arrived — which is precisely why NCL
    cannot early-evaluate and why the paper's generalized EE is a PL-only
    optimization.  The paper's other qualitative claims are also
    reproducible here as numbers:

    - "NCL computation blocks are quite different from their synchronous
      counterparts" — the DIMS block for one LUT4 costs up to 18 threshold
      gates (see {!gate_count});
    - "NCL has the same advantage of eliminating transient computations"
      — no rail ever glitches: each wave asserts each rail at most once;
    - "does not have the disadvantage of the PL control overhead" — no
      per-gate Muller-C/feedback machinery, but the price is the NULL wave:
      every computation pays a full return-to-NULL traversal (cf. NULL
      cycle reduction, [21] in the paper).

    Sequential circuits are handled with the same serialized-wave protocol
    as [Ee_sim.Sim]: register values re-enter as DATA at wave start and the
    next state is captured from the D rails. *)

type t

val of_netlist : Ee_netlist.Netlist.t -> t
(** DIMS mapping.  Raises [Invalid_argument] on netlists with constant
    nodes feeding registers only through constants (constants are folded
    into the rails). *)

val gate_count : t -> int
(** Threshold gates (C-elements + ORs) in the combinational network —
    compare with [Netlist.lut_count] for the paper's block-size claim. *)

val completion_inputs : t -> int
(** Rail pairs observed by the completion detector. *)

type run = {
  waves : int;
  avg_data_time : float;  (** DATA wavefront: input-stable to outputs-DATA. *)
  null_time : float;  (** NULL wavefront traversal (structural). *)
  avg_cycle : float;
      (** DATA + completion + NULL + completion: the NCL cycle the
          NULL-cycle-reduction literature attacks. *)
}

val run_random : ?gate_delay:float -> t -> vectors:int -> seed:int -> run

val equiv_random : t -> Ee_netlist.Netlist.t -> vectors:int -> seed:int -> bool
(** DATA-wave outputs against the synchronous golden model
    ({!Ee_netlist.Netlist.agrees_random}). *)

val strongly_indicating_witness : t -> vectors:int -> seed:int -> bool
(** Checks on random vectors that no primary-output rail asserts earlier
    than the latest primary input it transitively depends on — the
    strong-indication property that rules out early evaluation. *)
