(** Trigger search generalized beyond LUT4.

    The paper notes (§3) that the exhaustive subset search is practical
    {e because} the cell is a LUT4: 14 candidate supports, each checked in
    constant time.  For a k-input cell the candidate count is [2^k - 2]
    and each coverage computation scans [2^k] minterms, so the cost grows
    as roughly [4^k].  This module runs the same algorithm over arbitrary
    truth tables so the [--micro] bench can measure that growth (and so
    LUT5/LUT6 flows can cross-check the {!Ee_search} CEGIS driver, which
    computes the same candidates without the minterm scans). *)

type candidate = {
  subset : int;  (** Variable bitmask. *)
  coverage_count : int;  (** Covered minterms, of [2^arity]. *)
  coverage : float;  (** Percent. *)
  func : Ee_logic.Truthtab.t;  (** Trigger function, same arity as master. *)
}

val trigger_function : Ee_logic.Truthtab.t -> subset:int -> Ee_logic.Truthtab.t

val candidates :
  ?min_coverage:float -> ?top_k:int -> Ee_logic.Truthtab.t -> candidate list
(** Non-empty strict subsets of the support with positive coverage, subset
    ascending.  [min_coverage] (percent, default 0) drops weaker candidates
    as they are found instead of materializing them; [top_k] keeps only the
    [k] best by the {!prune} rule.  With neither, the full list. *)

val prune : ?min_coverage:float -> ?top_k:int -> candidate list -> candidate list
(** The selection rule shared with the search driver: drop zero-coverage
    and sub-[min_coverage] candidates, rank by (coverage descending, subset
    ascending), keep the first [top_k], and return in subset order.
    Raises [Invalid_argument] on a negative [top_k]. *)

val prune_by :
  subset:('a -> int) ->
  coverage_count:('a -> int) ->
  coverage:('a -> float) ->
  ?min_coverage:float ->
  ?top_k:int ->
  'a list ->
  'a list
(** {!prune} over any candidate record, read through the three accessors;
    the kept elements are the input's own (physically).  The one
    implementation of the rule: [Ee_search.Driver.prune] is this on the
    driver's records. *)

val agrees_with_lut4 : Ee_logic.Lut4.t -> bool
(** Cross-check: at arity 4 this module computes exactly what
    {!Trigger.candidates} computes. *)
