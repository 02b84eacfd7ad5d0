(** Irredundant sum-of-products covers via the Minato–Morreale expansion.

    Where {!Qm.cover} greedily picks among all primes, [cover] builds an
    irredundant cover directly by the classical interval recursion
    [isop(L, U)] (here specialized to completely-specified functions,
    [L = U = f]).  Every cube of the result is an implicant, the union is
    exactly the ON-set, and no cube can be dropped — tested properties.
    Typically at least as small as the greedy prime cover.  {!choose}
    picks between the ON and OFF covers for the BLIF and AIGER writers,
    the SOP decomposer and the remapper's lowering. *)

val cover : Truthtab.t -> Cube.t list
(** Irredundant SOP of the ON-set, sorted. *)

type choice =
  | Const of bool
  | On of Cube.t list  (** Irredundant cover of the ON-set. *)
  | Off of Cube.t list  (** Irredundant cover of the OFF-set: the complement. *)

val choose : Truthtab.t -> choice
(** The cheapest two-level form of a function: the constant when it is
    one, else the shorter of its ON-set and OFF-set {!cover}s (the ON-set
    on a tie).  An [Off] cover is never empty. *)

val is_irredundant : Truthtab.t -> Cube.t list -> bool
(** True when the cubes cover exactly the ON-set and every cube is
    essential (removing it uncovers some minterm). *)
