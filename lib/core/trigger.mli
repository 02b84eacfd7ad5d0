(** Candidate trigger-function extraction (paper §3), for LUT4 masters and
    for wider cone functions alike.

    For a support subset [S] of the master's inputs, the trigger function
    is 1 on exactly the assignments of [S] under which the master function
    is constant (the remaining, {e late}, inputs are don't-cares); its
    coverage is the fraction of the master's minterms — ON and OFF sets
    together — decided by [S] alone.  The paper derives this from the prime
    cube lists of the master's ON and OFF sets (Table 2) and argues that the
    exhaustive subset search is practical because the cell is a LUT4.  Here
    each trigger is two word-parallel quantifications,
    [t_S = ∀late f ∨ ∀late ¬f] ({!Ee_logic.Truthtab.forall}), so one
    extractor serves LUT4 cells and LUT5–LUT8 cones; the test suite holds it
    to the cube-list route and to the minterm scan {!scan_function}. *)

type 'f t = {
  subset : int;  (** Bitmask of master input positions. *)
  func : 'f;
      (** Trigger function over the master's input positions; depends only
          on [subset] variables. *)
  coverage_count : int;  (** Covered minterms, of [2^arity]. *)
  coverage : float;  (** Percent, [coverage_count / 2^arity * 100]. *)
}
(** One candidate, its function a LUT4 ({!candidate}) or a truth table of
    the master's arity ({!wide}). *)

type candidate = Ee_logic.Lut4.t t

type wide = Ee_logic.Truthtab.t t

val trigger_function : Ee_logic.Truthtab.t -> subset:int -> Ee_logic.Truthtab.t
(** [trigger_function f ~subset] — bit [m] is 1 iff [f] restricted to the
    [subset]-assignment in [m] is constant. *)

val scan_function : Ee_logic.Truthtab.t -> subset:int -> Ee_logic.Truthtab.t
(** The same function by the definition: one
    {!Ee_logic.Truthtab.constant_under} scan per minterm, about [4^arity]
    steps.  The reference the tests and [bench --search] hold the extractor
    to; nothing in the flow calls it. *)

val extract : ?min_coverage:float -> ?top_k:int -> Ee_logic.Truthtab.t -> wide list
(** All candidates over non-empty strict subsets of the master's true
    support with positive coverage, subset ascending.  (The paper
    enumerates all 14 subsets of the four LUT inputs; subsets touching
    variables outside the support yield the same trigger as their
    restriction to the support, so enumerating support subsets is
    equivalent and never misses a candidate.)  [min_coverage] (percent,
    default 0) drops weaker candidates as they are found; [top_k] keeps
    only the [k] best by the {!prune} rule. *)

val best : int -> 'f t list -> 'f t list
(** The ranking every selection shares: coverage descending, then subset
    ascending, then the first [k] ([] when [k <= 0]). *)

val prune : ?min_coverage:float -> ?top_k:int -> 'f t list -> 'f t list
(** Drop zero-coverage and sub-[min_coverage] candidates, keep the {!best}
    [top_k], and return them in subset order.  Raises [Invalid_argument]
    on a negative [top_k]. *)

(** Memoization contexts for {!candidates}.  The candidate list depends
    only on the 16-bit master function, so synthesis over a whole netlist
    (or a whole benchmark suite) reuses a few hundred distinct entries.

    A context is owned by one domain at a time and is completely
    lock-free; parallel batches give each worker domain its own context
    and either {!Memo.merge} the tables into a longer-lived one at batch
    end or simply drop them ({!Ee_engine.Engine.run_suite} does exactly
    this through its pool's worker hooks).  There is no process-global
    table and no mutex on the candidate hot path. *)
module Memo : sig
  type t = (int, candidate list) Ee_util.Memo.t

  val create : ?size:int -> unit -> t

  val entries : t -> int

  val hits : t -> int

  val misses : t -> int

  val merge : into:t -> t -> unit
  (** Copy entries absent from [into] (per-key values are identical by
      purity, so first-wins is exact). *)

  val clear : t -> unit

  val domain_default : unit -> t
  (** The calling domain's default context — what {!candidates} uses when
      no [?memo] is passed.  One per domain, so concurrent default-context
      callers never contend or share entries. *)

  val install_domain_default : t -> unit
  (** Replace the calling domain's default context (pool worker-init hooks
      use this to give each batch a fresh table). *)
end

val candidates : ?memo:Memo.t -> Ee_logic.Lut4.t -> candidate list
(** {!extract} at arity 4, read back as LUT4 functions.

    Results are cached in [memo] (default: the calling domain's
    {!Memo.domain_default}, so bare [candidates f] one-offs stay terse and
    safe).  The same function always yields the same list whatever context
    is used — memo state affects time, never results. *)

val full_adder_carry : Ee_logic.Lut4.t
(** The paper's running example: carry-out [c(a+b) + ab] with a = input 2,
    b = input 1, c = input 0 (so that minterm index reads "abc"). *)

val full_adder_carry_trigger : Ee_logic.Lut4.t
(** The trigger [ab + a'b'] of Table 1 (support {a,b}). *)
