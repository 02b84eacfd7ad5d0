(** Reusable RTL building blocks for the benchmark circuits.

    Unlike the inference-based helpers in {!Ee_rtl.Rtl}, these take widths
    explicitly so they can be used while a design is still being built. *)

open Ee_rtl

val zext : from:int -> int -> Rtl.expr -> Rtl.expr
(** [zext ~from w e] zero-extends a [from]-bit expression to [w] bits. *)

val shl : int -> Rtl.expr -> int -> Rtl.expr
(** [shl w e n]: shift a [w]-bit expression left by constant [n]. *)

val shr : int -> Rtl.expr -> int -> Rtl.expr

val rotl : int -> Rtl.expr -> int -> Rtl.expr
(** Rotate left by a constant. *)

val eq_const : int -> Rtl.expr -> int -> Rtl.expr

val inc : int -> Rtl.expr -> Rtl.expr

val popcount : int -> Rtl.expr -> Rtl.expr
(** [popcount w e] is the number of set bits of a [w]-bit expression, as a
    [ceil(log2 (w+1))]-bit value. *)

val popcount_width : int -> int

val min2 : Rtl.expr -> Rtl.expr -> Rtl.expr
(** Unsigned minimum of two same-width values. *)

val max2 : Rtl.expr -> Rtl.expr -> Rtl.expr

val abs_diff : Rtl.expr -> Rtl.expr -> Rtl.expr
(** [|a - b|] unsigned. *)

val lfsr_next : int -> taps:int list -> Rtl.expr -> Rtl.expr
(** Galois-style LFSR step: shift left, feeding back the top bit XORed into
    the tap positions. *)

val rom : int -> Rtl.expr -> int array -> Rtl.expr
(** [rom w addr contents] is a mux tree returning [contents.(addr)] as a
    [w]-bit value (missing entries read as 0). *)

type alu_op = Alu_add | Alu_sub | Alu_and | Alu_or | Alu_xor | Alu_shl1 | Alu_shr1 | Alu_not

val alu : int -> op:Rtl.expr -> Rtl.expr -> Rtl.expr -> Rtl.expr
(** [alu w ~op a b]: 8-operation ALU over [w]-bit operands selected by the
    3-bit [op] in the order of {!alu_op}. *)

val alu_flags : int -> Rtl.expr -> Rtl.expr * Rtl.expr
(** [(zero, msb)] flags of a [w]-bit result. *)

val barrel_shl : int -> Rtl.expr -> Rtl.expr -> Rtl.expr
(** [barrel_shl w e amount]: variable left shift; [amount] has
    [ceil(log2 w)] bits. *)
