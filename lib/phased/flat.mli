(** The compiled form of a PL netlist and its token graph, shared by every
    simulator and timed model ([Sim], [Rail_sim], [Stream_sim],
    [Timed_graph]) and by [Feedback], so that all of them refuse a malformed
    netlist the same way and see the same arcs.

    The producers of a gate are the gates its input tokens come from: its
    fanins in position order, each once, then a master's trigger unless it
    is also a fanin.  Producer {e slot} [j] of consumer [i] is the data arc
    [producer.(j) -> i], holding {!token} [j] initial tokens, and, unless it
    is a self-loop (a register reading itself, whose marked data arc is
    already a one-token circuit), its acknowledge [i -> producer.(j)],
    holding the complement.  These are the arcs of {!marked_graph}, in the
    order {!iter_slots} gives. *)

(** [Master] is a [Pl.Gate] with an EE trigger. *)
type code = Source | Const | Register | Lut | Trigger | Master | Sink

type t = private {
  pl : Pl.t;
  code : code array;
  arg : int array;
      (** Source position, constant or register reset value (0 or 1),
          master's trigger, sink's fanin; 0 otherwise. *)
  func : Ee_logic.Lut4.t array;  (** LUT of [Lut], [Trigger] and [Master] gates. *)
  support : int array;  (** Master: mask of the fanin positions feeding its trigger. *)
  fstart : int array;  (** Gate [i]'s fanins are [fanin.(fstart.(i) .. fstart.(i+1)-1)]. *)
  fanin : int array;
  pstart : int array;  (** Gate [i]'s slots are [pstart.(i) .. pstart.(i+1)-1]. *)
  producer : int array;  (** Per slot: the gate its data token comes from. *)
  pmask : int array;
      (** Per slot: bit [q] when its producer feeds fanin position [q],
          {!trigger_bit} when it is the master's trigger. *)
}

val trigger_bit : int
(** [1 lsl Lut4.arity], above every fanin position. *)

val of_pl : caller:string -> Pl.t -> t
(** Raises [Invalid_argument (caller ^ ": ...")] on a gate or trigger with
    more than 4 fanins, a sink or register without exactly one fanin, or an
    EE master whose trigger id does not name a trigger gate. *)

val token : t -> int -> int
(** [token f j]: the initial tokens on slot [j]'s data arc, 1 when its
    producer is a register or a constant source and 0 otherwise.  Computed
    on each call, so a compiled netlist stores no marking. *)

val token_from : t -> int -> int
(** [token_from f g]: the initial tokens on every data arc gate [g]
    produces, [token f j] for any slot [j] whose producer is [g]. *)

(** The slots read from the producer side: gate [g] is the producer of
    slots [cslot.(cstart.(g) .. cstart.(g+1)-1)], ascending (so their
    consumers ascend too), and slot [j] belongs to consumer [owner.(j)]. *)
type consumers = { cstart : int array; cslot : int array; owner : int array }

val consumers : t -> consumers
(** Built on each call; [t] does not keep it. *)

val iter_slots : t -> (int -> int -> unit) -> unit
(** [iter_slots f visit] calls [visit i j] for every slot [j] of consumer
    [i] in the token graph's arc order: consumers descending; per consumer,
    its slots other than the trigger's descending, then the trigger's. *)

val marked_graph : t -> Ee_markedgraph.Marked_graph.t
(** The token graph: one node per gate; per slot in {!iter_slots} order, its
    data arc, then its acknowledge unless it is a self-loop. *)

val select : (int -> bool) -> int array -> int array
(** [select keep ids] keeps the ids satisfying [keep], in order. *)
