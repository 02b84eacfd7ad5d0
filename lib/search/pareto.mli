(** The coverage-vs-area Pareto front of one master function.

    A trigger's area is its cube count (each cube is a product term of the
    SOP realization); its value is coverage.  For every support subset,
    the trigger function's irredundant cover ({!Ee_logic.Isop.cover})
    realizes the full trigger, and a cube budget [b] keeps the first [b]
    cubes picked greedily by added coverage — a sound, possibly partial
    trigger.  This module collects the non-dominated (cubes, coverage)
    points over every subset and every budget up to 8 cubes, each with its
    witness subset.  The third axis — the netlist period λ — depends on
    where the master sits in a netlist, so the bench and the
    [ee_synth search] command assemble λ points from {!Search_select} runs
    and join them with this logic-level front. *)

type point = {
  pt_subset : int;  (** Witness support (smallest subset achieving it). *)
  pt_cubes : int;  (** Trigger area: cubes actually used. *)
  pt_coverage_count : int;
  pt_coverage : float;  (** Percent of [2^arity]. *)
  pt_exact : bool;  (** Maximal for its subset (no budget cut). *)
}

val front : Ee_logic.Truthtab.t -> point list
(** Non-dominated points, cube count ascending.  Deterministic. *)

val dominates : point -> point -> bool
(** [dominates a b]: no more cubes, no less coverage, strictly better in
    at least one. *)

val non_dominated : point list -> point list
