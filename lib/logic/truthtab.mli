(** Dense truth tables for Boolean functions of up to 16 variables.

    Variable [i] corresponds to bit [i] of the minterm index (variable 0 is
    the least-significant bit).  All operations require operands of equal
    arity.  Truth tables are immutable values with structural equality. *)

type t

val arity : t -> int

val max_arity : int
(** Largest supported arity (16). *)

val create : int -> t
(** [create n] is the constant-false function of arity [n]. *)

val const : int -> bool -> t
(** [const n b] is the constant-[b] function of arity [n]. *)

val var : int -> int -> t
(** [var n i] is the projection onto variable [i], [0 <= i < n]. *)

val of_fun : int -> (int -> bool) -> t
(** [of_fun n f] tabulates [f] over minterm indices [0 .. 2^n - 1]. *)

val of_minterms : int -> int list -> t
(** Function true exactly on the given minterm indices. *)

val of_string : string -> t
(** Parse a bitstring of length [2^n]; leftmost character is the value at the
    highest minterm index (the conventional truth-table column read
    bottom-up).  Raises [Invalid_argument] on bad input. *)

val to_string : t -> string
(** Inverse of {!of_string}. *)

val eval : t -> int -> bool
(** [eval t m] is the function value at minterm index [m]. *)

val eval_vector : t -> bool array -> bool
(** [eval_vector t v] evaluates with [v.(i)] as the value of variable [i];
    [v] may be longer than the arity (extra entries ignored). *)

val equal : t -> t -> bool

val compare : t -> t -> int

val hash : t -> int

val lognot : t -> t

val logand : t -> t -> t

val logor : t -> t -> t

val logxor : t -> t -> t

val count_ones : t -> int
(** Number of ON-set minterms. *)

val minterms : t -> int list
(** Ascending list of ON-set minterm indices. *)

val is_const : t -> bool option
(** [Some b] if the function is the constant [b], else [None]. *)

val restrict : t -> var:int -> value:bool -> t
(** Cofactor: fix a variable to a constant.  Arity is preserved; the result
    no longer depends on [var].  Word-parallel, like {!forall}. *)

val depends_on : t -> int -> bool
(** True if the function's value changes with the given variable. *)

val support : t -> int
(** Bitmask of variables the function actually depends on. *)

val constant_under : t -> subset:int -> assignment:int -> bool option
(** [constant_under t ~subset ~assignment] restricts every variable in the
    [subset] bitmask to its bit in [assignment] and reports [Some b] when the
    restricted function is the constant [b], [None] otherwise.  A scan of
    all [2^n] minterms: the reference the quantified trigger extractor
    ([Ee_core.Trigger]) is tested against. *)

val exists : t -> mask:int -> t
(** [exists t ~mask] quantifies every variable of the [mask] bitmask
    existentially: 1 where some completion of the masked variables is 1.
    Word-parallel: a shift and mask inside each word for variables 0–5, a
    word-pair OR for the others.  Raises [Invalid_argument] when [mask]
    names a variable at or above the arity. *)

val forall : t -> mask:int -> t
(** [forall t ~mask] quantifies every variable of [mask] universally: 1
    where every completion of the masked variables is 1.  With [late] the
    variables outside a support subset [S], [forall f ~mask:late] ∨
    [forall (lognot f) ~mask:late] is the trigger function of [S]. *)

val cofactor_pair : t -> var:int -> t * t
(** [(negative, positive)] cofactors. *)

val permute : t -> int array -> t
(** [permute t p] renames variable [i] to [p.(i)]; [p] must be a permutation
    of [0 .. arity-1]. *)

val random : Ee_util.Prng.t -> int -> t
(** Uniformly random function of the given arity. *)

val pp : Format.formatter -> t -> unit
