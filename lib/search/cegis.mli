(** Counterexample-guided trigger synthesis for one support subset.

    The brute-force route ({!Ee_core.Trigger_wide}) scans all [2^k]
    minterms for each candidate support.  This module instead works at the
    cube level, the way the paper's Table 2 does: the maximal trigger over
    a support [S] is the union of the S-supported prime implicants of the
    master [f] and its complement — a cube whose care set fits inside [S]
    decides [f] for every completion of the other inputs.

    The loop is classic CEGIS with a BDD verifier:

    + {b seed} the cube pool with the S-supported cubes of the
      {!Ee_logic.Isop} covers of [f] and [¬f] (cheap, shared across every
      subset of the same master);
    + {b verify} the pool's union against the quantified spec
      ([∀-quantify the non-S variables of f, same for ¬f, OR the two] —
      {!Ee_logic.Bdd.forall_mask});
    + on a mismatch, {b extract} a counterexample assignment
      ({!Ee_logic.Bdd.any_sat} on [spec ∧ ¬candidate] — sound because the
      candidate is always a union of spec implicants), {b expand} it to a
      prime-within-S cube (greedy literal dropping, the [Qm]-style
      expansion step) and add it to the pool.

    The loop is needed for completeness: ISOP covers are irredundant, not
    prime-complete, so an implicant with [care ⊆ S] can be absent from
    both seeds.  Everything is deterministic, so results are reproducible
    and cacheable. *)

type ctx
(** Per-master shared state: the BDDs of [f] and [¬f], the ISOP seed
    cubes, and the memoized per-subset specs.  Build once per master
    function, reuse for every subset. *)

val ctx : Ee_logic.Truthtab.t -> ctx

val arity : ctx -> int

val spec_bdd : ctx -> subset:int -> Ee_logic.Bdd.t
(** The maximal trigger function over [subset] (memoized).  Raises
    [Invalid_argument] if [subset] is empty or mentions variables beyond
    the master's arity. *)

val spec_coverage : ctx -> subset:int -> int
(** ON-minterms of {!spec_bdd} over the full [2^arity] space — the best
    coverage any trigger on this subset can reach, computed without
    synthesizing anything.  Monotone in [subset], which is what the
    {!Driver} prunes on. *)

type result = {
  subset : int;
  cubes : Ee_logic.Cube.t list;  (** Sorted; care sets within [subset]. *)
  func : Ee_logic.Truthtab.t;  (** Full master arity. *)
  coverage_count : int;  (** Of [2^arity]. *)
  exact : bool;
      (** True when [func] {e is} the maximal trigger; false only when a
          cube budget forced a strict under-approximation. *)
  iterations : int;  (** CEGIS refinement rounds (0 = seeds sufficed). *)
  seeded : int;  (** Pool cubes contributed by the ISOP seeds. *)
}

val synthesize : ?seed:bool -> ?max_cubes:int -> ctx -> subset:int -> result
(** Run the loop to the exact maximal trigger, then — if [max_cubes] is
    given and the (subsumption-pruned) cube pool is larger — keep the
    greedy best-coverage subset of that many cubes.  The budgeted result
    is still sound (every cube implies the spec), just possibly partial.

    [seed] (default [true]): start from the S-supported ISOP cubes.  The
    loop is complete from the empty pool too; [seed:false] trades more
    refinement rounds for skipping the ISOP pair, which wins when only a
    few subsets of the master will ever be synthesized (the {!Driver}
    decides per run).  [func], [coverage_count] and [exact] do not depend
    on seeding; the cube list may (both are sound covers of the spec). *)
