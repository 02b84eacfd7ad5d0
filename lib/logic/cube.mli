(** Cubes (product terms) over a fixed variable numbering.

    A cube specifies a polarity for a subset of variables and leaves the
    rest as don't-cares; e.g. over variables (a=2, b=1, c=0) the cube ["11-"]
    is [a AND b].  Cubes are the representation the paper uses to derive
    candidate trigger functions (Table 2). *)

type t
(** Immutable cube.  The variable universe size is carried by the containing
    {!Cubelist}; a cube itself only records care bits and polarities. *)

val make : care:int -> value:int -> t
(** [make ~care ~value]: bit [i] of [care] set means variable [i] is
    specified with polarity bit [i] of [value].  Bits of [value] outside
    [care] are ignored (normalized to 0). *)

val universe : t
(** The cube with no specified variable (covers everything). *)

val of_minterm : nvars:int -> int -> t
(** Fully-specified cube equal to one minterm. *)

val care : t -> int
(** Bitmask of specified variables (the cube's support). *)

val value : t -> int
(** Polarities of the specified variables (normalized: subset of [care]). *)

val num_literals : t -> int

val contains_minterm : t -> int -> bool

val num_minterms : nvars:int -> t -> int
(** Number of minterms covered within a universe of [nvars] variables. *)

val minterms : nvars:int -> t -> int list
(** Ascending minterm indices covered. *)

val disjoint : t -> t -> bool
(** True when the cubes share no minterm. *)

val intersect : t -> t -> t option
(** Largest cube contained in both, if any. *)

val merge : t -> t -> t option
(** Quine–McCluskey combination: if the cubes have identical care sets and
    differ in exactly one polarity, the merged cube drops that variable. *)

val supported_on : t -> subset:int -> bool
(** True when every specified variable of the cube lies in [subset] —
    i.e. the cube only mentions the candidate trigger inputs. *)

val equal : t -> t -> bool

val compare : t -> t -> int

val to_string : nvars:int -> t -> string
(** Positional string, variable [nvars-1] leftmost: ['1'], ['0'] or ['-'],
    matching the paper's cube notation. *)

val of_string : string -> t
(** Inverse of {!to_string} (the implied [nvars] is the string length). *)

val pp : nvars:int -> Format.formatter -> t -> unit
