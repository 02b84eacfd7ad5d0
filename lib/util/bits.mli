(** Bit-twiddling helpers shared by the truth-table and cube machinery. *)

val popcount : int -> int
(** Number of set bits in the (non-negative) integer. *)

val popcount64 : int64 -> int
(** Number of set bits in a 64-bit word. *)

val get : int -> int -> bool
(** [get word i] is bit [i] of [word]. *)

val set : int -> int -> bool -> int
(** [set word i b] is [word] with bit [i] forced to [b]. *)

val mask : int -> int
(** [mask n] is an integer with the low [n] bits set, [0 <= n <= 62]. *)

val iter_bits : int -> (int -> unit) -> unit
(** [iter_bits word f] calls [f] on the index of every set bit, ascending. *)

val fold_bits : int -> ('a -> int -> 'a) -> 'a -> 'a
(** Fold over set-bit indices, ascending. *)

val indices : int -> int list
(** [indices word] lists the set-bit positions, ascending. *)

val all_nonempty_proper_subsets : int -> int list
(** [all_nonempty_proper_subsets m] lists every non-empty strict sub-mask of
    the bitmask [m], in increasing numeric order. *)

val log2_ceil : int -> int
(** [log2_ceil n] is the least [k] with [2^k >= n]; [n >= 1]. *)
