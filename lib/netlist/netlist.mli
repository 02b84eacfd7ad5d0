(** Synchronous gate-level netlists over LUT4 cells and D flip-flops.

    This is the output format of the technology mapper and the input format
    of the phased-logic mapper: exactly the netlist a synchronous FPGA flow
    would produce, which the paper maps one-to-one onto PL gates.

    Every node produces one signal, identified by the node's index.  LUT
    nodes have at most four fanins; input [k] of the LUT corresponds to
    variable [k] of its {!Ee_logic.Lut4.t} function. *)

type node =
  | Input of string  (** Primary input (name). *)
  | Const of bool  (** Constant driver. *)
  | Lut of { func : Ee_logic.Lut4.t; fanin : int array }
      (** Combinational LUT; [fanin] length 1–4. *)
  | Dff of { d : int; init : bool }  (** Rising-edge register with reset value. *)

type t
(** A validated, immutable netlist. *)

(** {1 Construction} *)

type builder

val builder : unit -> builder

val add_input : builder -> string -> int

val add_const : builder -> bool -> int

val add_lut : builder -> Ee_logic.Lut4.t -> int array -> int
(** [add_lut b f fanin] — [fanin] must have length 1–4 and refer to existing
    nodes; [f] must not depend on variables at or beyond [Array.length fanin]. *)

val add_dff : builder -> init:bool -> int
(** Declare a register whose data input is connected later with
    {!connect_dff} (registers close sequential loops). *)

val connect_dff : builder -> int -> d:int -> unit

val set_output : builder -> string -> int -> unit

val finalize : builder -> t
(** Validates and freezes the netlist.  Raises [Invalid_argument] on dangling
    register inputs, bad fanin references, over-wide LUTs, LUT functions
    depending on unconnected variables, or combinational cycles. *)

(** {1 Observation} *)

val node_count : t -> int

val node : t -> int -> node

val inputs : t -> (string * int) array
(** Primary inputs in declaration order. *)

val outputs : t -> (string * int) array
(** Primary outputs in declaration order. *)

val lut_ids : t -> int list
(** All LUT node ids, ascending. *)

val dff_ids : t -> int list

val lut_count : t -> int

val dff_count : t -> int

val fanouts : t -> int list array
(** [fanouts t].(i) lists nodes reading signal [i] (register D edges
    included). *)

val topo_order : t -> int list
(** Topological order of the combinational graph: inputs, constants and
    registers first, then LUTs such that every LUT follows its fanins
    (register D edges excluded). *)

val level : t -> int -> int
(** Combinational depth of a node: 0 for inputs/constants/registers, else
    [1 + max (level fanin)].  This is the paper's arrival-time estimate
    ("maximum path length in terms of PL gates"). *)

val depth : t -> int
(** Maximum level over all nodes. *)

(** {1 Synchronous golden-model simulation} *)

type state
(** Register contents. *)

val initial_state : t -> state

val step : t -> state -> bool array -> bool array * state
(** [step t st inputs] evaluates one clock cycle: [inputs] in primary-input
    declaration order; returns output values (declaration order) and the
    next register state. *)

val agrees_random : t -> vectors:int -> seed:int -> (bool array -> bool array) -> bool
(** [agrees_random t ~vectors ~seed wave] checks a model of [t] against
    {!step}: it feeds [vectors] random input vectors, drawn from
    [Prng.create seed], to [wave] and to {!step} from {!initial_state},
    and is [true] when [wave] returns {!step}'s outputs every time.  It
    stops at the first mismatch; [wave] carries the model's own state. *)

val eval_node : t -> state -> bool array -> int -> bool
(** Value of one signal under the given state and inputs (combinational
    settling). *)

(** {1 Export} *)

val to_dot : t -> string
(** Graphviz rendering for inspection. *)

val stats_string : t -> string
