(** Hash-consed simple-gate intermediate representation.

    The elaborator bit-blasts RTL into this IR; the technology mapper covers
    it with LUT4s.  Structural hashing plus constant folding at construction
    give the light logic optimization a synthesis tool would apply. *)

type gate =
  | Gconst of bool
  | Ginput of string * int  (** input name, bit index. *)
  | Greg of string * int  (** register output, bit index. *)
  | Gnot of int
  | Gand of int * int
  | Gor of int * int
  | Gxor of int * int
  | Gmux of int * int * int  (** [Gmux (sel, f0, f1)]. *)

type circuit = {
  gates : gate array;  (** index = gate id; fanins always precede users. *)
  input_bits : (string * int) list;  (** declared inputs (name, width). *)
  reg_bits : (string * int * int) list;  (** registers (name, width, init). *)
  reg_next : (string * int array) list;  (** per-register next-value bits. *)
  out_bits : (string * int array) list;  (** per-output bits. *)
}

type builder

val builder : unit -> builder

val const : builder -> bool -> int

val input : builder -> string -> int -> int

val reg : builder -> string -> int -> int

val gnot : builder -> int -> int

val gand : builder -> int -> int -> int

val gor : builder -> int -> int -> int

val gxor : builder -> int -> int -> int

val gmux : builder -> sel:int -> f0:int -> f1:int -> int
(** All constructors fold constants and common identities ([x&x], [x^x],
    double negation, mux with equal branches, …) and hash-cons structurally
    identical gates. *)

val declare_input : builder -> string -> int -> unit

val declare_reg : builder -> string -> width:int -> init:int -> unit

val set_reg_next : builder -> string -> int array -> unit

val set_output : builder -> string -> int array -> unit

val finalize : builder -> circuit

val gate_count : circuit -> int

val fanins : gate -> int list
(** The gates a gate reads, in operand order ([Gmux]: select, [f0], [f1]);
    none for a constant, an input or a register. *)

val eval : circuit -> env:(string * int -> bool) -> regs:(string * int -> bool) -> bool array
(** Evaluate every gate; [env] supplies input bits, [regs] register bits. *)

val cone_function : gate array -> root:int -> leaves:int list -> Ee_logic.Truthtab.t
(** The function of the cone of gate [root] over its [leaves] (at most 8;
    leaf [j] is variable [j]): every path from an input or register to
    [root] must cross [leaves].  The cone is evaluated on 32 minterms at a
    time, once per 32. *)

val cone_lut4 : gate array -> root:int -> leaves:int list -> Ee_logic.Lut4.t
(** [Lut4.of_truthtab (cone_function gates ~root ~leaves)] for at most 4
    leaves, evaluated once. *)
