(** The pruned trigger-search driver — the replacement for brute-force
    subset enumeration above arity 4.

    Brute force ({!Ee_core.Trigger_wide.candidates}) costs ~[4^k] per
    master.  This driver shares one {!Cegis.ctx} per master (one BDD pair,
    one ISOP seed pass) and, per support subset, first asks the BDD for
    the {e spec coverage} — the best any trigger on that subset can do —
    before committing to cube synthesis.  Coverage is monotone in the
    support, so walking supports largest-first lets every subset inherit
    an upper bound from its parents, and two prunes become exact rather
    than heuristic:

    - [min_coverage]: a subset whose bound is already below the floor is
      skipped without probing (its children inherit the bound);
    - [top_k]: once [k] candidates are held, a subset whose bound is
      strictly below the current k-th best realized coverage cannot enter
      the ring (ties are never pruned: the
      {!Ee_core.Trigger_wide.prune} rule breaks them toward the smaller
      subset, which may appear later in the size-descending walk).

    Unpruned and without a cube budget the result is {e provably}
    identical to brute force — the property and exhaustive-LUT4 tests
    enforce it — so callers can switch on arity with no behavior change. *)

type candidate = {
  subset : int;  (** Variable bitmask. *)
  coverage_count : int;  (** Covered minterms, of [2^arity]. *)
  coverage : float;  (** Percent. *)
  func : Ee_logic.Truthtab.t;  (** Trigger function, master arity. *)
  cubes : Ee_logic.Cube.t list;  (** SOP realization (sorted). *)
  exact : bool;  (** False only under a [max_cubes] budget cut. *)
}

type stats = {
  supports : int;  (** Subsets enumerated ([2^|support|] - 2). *)
  probed : int;  (** Spec-coverage BDD probes. *)
  synthesized : int;  (** CEGIS runs (kept candidates). *)
  bound_pruned : int;  (** Skipped before probing, by inherited bound. *)
  rank_skipped : int;  (** Probed but below the floor / the top-k ring. *)
  iterations : int;  (** Total CEGIS refinement rounds. *)
}

val search :
  ?min_coverage:float ->
  ?top_k:int ->
  ?max_cubes:int ->
  Ee_logic.Truthtab.t ->
  candidate list * stats
(** Candidates in subset order (the {!Ee_core.Trigger_wide.prune} rule
    applied), plus the work accounting the [--search] bench reports. *)

val candidates :
  ?min_coverage:float ->
  ?top_k:int ->
  ?max_cubes:int ->
  Ee_logic.Truthtab.t ->
  candidate list

val prune : ?min_coverage:float -> ?top_k:int -> candidate list -> candidate list
(** Same rule as {!Ee_core.Trigger_wide.prune}, preserving cube lists. *)

val agrees_with_brute :
  ?min_coverage:float -> ?top_k:int -> Ee_logic.Truthtab.t -> bool
(** Does [candidates] (no cube budget) return exactly what brute force
    returns, with every candidate exact?  The equivalence the test suite
    checks on random functions up to arity 5 and exhaustively at arity 4. *)
