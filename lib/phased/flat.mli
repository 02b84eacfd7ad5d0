(** The compiled form of a PL netlist, shared by every simulator and timed
    model ([Sim], [Rail_sim], [Stream_sim], [Timed_graph]), so that all of
    them refuse a malformed netlist the same way.

    The producers of a gate are the gates its input tokens come from: its
    fanins in position order, each once, then a master's trigger unless it
    is also a fanin.  Each (producer, consumer) pair is one data arc of
    {!Pl.to_marked_graph}. *)

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
  pstart : int array;  (** Gate [i]'s producers are [producer.(pstart.(i) .. pstart.(i+1)-1)]. *)
  producer : int array;
  pmask : int array;
      (** Per producer: bit [q] when it feeds fanin position [q],
          {!trigger_bit} when it is the master's trigger. *)
}

val trigger_bit : int
(** [1 lsl Lut4.arity], above every fanin position. *)

val of_pl : caller:string -> Pl.t -> t
(** Raises [Invalid_argument (caller ^ ": ...")] on a gate or trigger with
    more than 4 fanins, a sink or register without exactly one fanin, or an
    EE master whose trigger id does not name a trigger gate. *)

val select : (int -> bool) -> int array -> int array
(** [select keep ids] keeps the ids satisfying [keep], in order. *)
