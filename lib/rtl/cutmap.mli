(** Priority-cuts LUT4 technology mapping, with an average-case mode.

    {!Techmap} is an area-oriented greedy mapper (single-fanout cone
    packing), the shape a generic synchronous flow produces.  This mapper
    enumerates priority cuts per node and selects by one of two objectives:

    - [`Depth] — classical worst-case objective: minimize the LUT level of
      every node (what synchronous mappers optimize, per the paper's §1
      observation);
    - [`Delay] — the same arrival-time primary objective, breaking ties
      among equal-arrival cuts by {e area flow} — the fanout-amortized LUT
      count of the cone, [AF(cut) = (1 + Σ AF(leaf)) / refs(node)] — the
      standard delay-driven priority-cuts recipe.  Depth stays at or below
      {!Techmap}'s on every ITC99 bench (a corpus-sweep invariant) and
      area shrinks below [`Depth] mode's; the tiebreak can shift which
      cuts survive the priority list, so depth may differ from [`Depth]
      by a level either way.
      This is the default objective for netlists imported through the
      frontend, where no RTL structure is available to help {!Techmap};
    - [`Ee_aware] — average-case objective: minimize the node's {e expected}
      arrival time under early evaluation, scoring each candidate cut by
      running the trigger search on its function and mixing the early and
      guarded arrivals by the trigger's firing probability (uniform-input
      model).  This realizes the average-case technology mapping the paper
      points to (its reference [4]) inside the EE flow.

    Both modes produce ordinary LUT4 netlists interchangeable with
    {!Techmap.run}'s output; the [--mappers] bench compares the EE speedup
    each mapping style admits. *)

type mode = Depth | Delay | Ee_aware

val run :
  ?mode:mode ->
  ?cuts_per_node:int ->
  ?memo:Ee_core.Trigger.Memo.t ->
  ?flat_ports:bool ->
  Gates.circuit ->
  Ee_netlist.Netlist.t
(** [cuts_per_node] bounds the priority list (default 8).  [memo] is the
    trigger-candidate cache [`Ee_aware] scoring consults (default: the
    calling domain's {!Ee_core.Trigger.Memo.domain_default}); the other
    modes never touch it.  [flat_ports] (default [false]) names width-1
    ports verbatim instead of [name[0]] — required when remapping an
    imported netlist whose port names must survive for equivalence
    checking. *)

val best_cuts :
  cap:int ->
  mode:mode ->
  cuts_per_node:int ->
  ?memo:Ee_core.Trigger.Memo.t ->
  Gates.circuit ->
  int array array
(** The priority-cuts labeler behind {!run} ([cap = 4]) and {!wide_covers}
    ([cap = lut_k]): per gate of the circuit, the cut of at most [cap]
    leaves (gate indices, ascending) that {!run} would cover it with; a
    constant, input or register gate is its own cut.  Raises
    [Invalid_argument] when some gate has no feasible cut ([cap] below a
    gate's fanin count). *)

val run_rtl :
  ?mode:mode ->
  ?cuts_per_node:int ->
  ?memo:Ee_core.Trigger.Memo.t ->
  ?flat_ports:bool ->
  Rtl.design ->
  Ee_netlist.Netlist.t

type wide_lut = {
  wroot : int;  (** Gate index in the input circuit. *)
  wleaves : int list;  (** Cut leaves, ascending gate indices. *)
  wfunc : Ee_logic.Truthtab.t;
      (** Cone function over the leaves; variable [j] is leaf [j]. *)
}

val wide_covers :
  ?lut_k:int -> ?cuts_per_node:int -> Gates.circuit -> wide_lut list
(** A depth-oriented LUT-[k] cover of the circuit ([lut_k] in 4..8,
    default 6), as {e analysis} input for wide trigger extraction
    ({!Ee_core.Trigger.extract}): the emitted netlist cell stays a LUT4
    everywhere else in the flow, these records only say which LUT5/LUT6
    cone functions a wide cell library would realize.  One record per
    covered node reachable from the interface roots, root ascending.
    Raises [Invalid_argument] on an out-of-range [lut_k]. *)
