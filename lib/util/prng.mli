(** Deterministic splittable pseudo-random number generator (SplitMix64).

    All randomness in the repository flows through this module so that every
    experiment is bit-reproducible from its seed.  The generator follows the
    SplitMix64 reference implementation of Steele, Lea and Flood. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val split : t -> t
(** [split t] advances [t] and returns a statistically independent child
    generator.  Used to give sub-experiments their own streams. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val bits : t -> int -> int
(** [bits t n] is a uniform [n]-bit non-negative integer, [0 <= n <= 30]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val bool : t -> bool
(** Uniform boolean. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bool_vector : t -> int -> bool array
(** [bool_vector t n] is an array of [n] uniform booleans: element [k] is
    the [k]-th of [n] successive {!bool} draws, and [t] is left where those
    draws leave it.  Every recorded experiment's vector stream depends on
    this contract. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
