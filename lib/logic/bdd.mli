(** Reduced Ordered Binary Decision Diagrams with hash-consing.

    The netlist optimizer and the test suite use BDDs as an independent
    oracle for Boolean-function equivalence (truth tables, cube lists and
    BDDs are three representations that must always agree).  Variable order
    is the identity over integer variable indices. *)

type manager
(** Owns the unique-node table and the operation caches. *)

type t
(** A BDD node handle.  Handles from the same manager are canonical:
    structural equivalence is physical equality of ids. *)

val manager : unit -> manager

val zero : manager -> t

val one : manager -> t

val var : manager -> int -> t
(** [var m i] is the projection onto variable [i >= 0]. *)

val lognot : manager -> t -> t

val logand : manager -> t -> t -> t

val logor : manager -> t -> t -> t

val logxor : manager -> t -> t -> t

val ite : manager -> t -> t -> t -> t
(** [ite m c a b] is [if c then a else b]. *)

val restrict : manager -> t -> var:int -> value:bool -> t

val equal : t -> t -> bool
(** Constant-time canonical equality (same manager assumed). *)

val is_const : t -> bool option

val of_truthtab : manager -> Truthtab.t -> t

val to_truthtab : manager -> t -> arity:int -> Truthtab.t
(** The BDD must not mention variables [>= arity]. *)

val sat_count : manager -> t -> nvars:int -> int
(** Number of satisfying assignments over [nvars] variables. *)

val support : manager -> t -> int
(** Bitmask of mentioned variables (must all be < 62). *)

val node_count : manager -> t -> int
(** Number of distinct internal nodes reachable (excluding leaves). *)

