(** Phased-logic netlists.

    A synchronous LUT4/DFF netlist maps one-to-one onto PL gates
    (paper §2): LUTs become combinational PL gates, flip-flops become
    register (buffer) PL gates holding an initial token, primary inputs
    become token sources and primary outputs token sinks.  The token graph
    pairs every data arc with a feedback (acknowledge) arc so that it lies
    on a two-node directed circuit carrying exactly one token, which makes
    the marked-graph equivalent live and safe; one feedback per distinct
    producer/consumer pair covers all signals between them (the sharing the
    paper describes).  {!Flat} compiles a [t] and builds that graph
    ({!Flat.marked_graph}).

    Early-evaluation pairs (paper §3, Figure 2) add a {e trigger} gate next
    to a {e master} gate: the trigger computes a sub-function of the
    master's function over a subset of its inputs; when the trigger token
    carries [1], the master may fire before its remaining inputs arrive.
    Token-flow-wise the trigger is an ordinary PL gate, so liveness and
    safety of the extended graph follow from the same construction; only
    the timed firing rule (in [Ee_sim]) changes. *)

type kind =
  | Source of string  (** Primary-input token producer. *)
  | Const_source of bool  (** Free-running constant generator. *)
  | Gate of Ee_logic.Lut4.t  (** Combinational PL gate (LUT4 + Muller-C). *)
  | Register of bool  (** Buffer gate with an initial output token (arg: reset value). *)
  | Trigger of { master : int; func : Ee_logic.Lut4.t }
      (** Early-evaluation trigger gate.  [func] is expressed over the
          master's input positions and depends only on the chosen subset. *)
  | Sink of string  (** Primary-output token consumer. *)

type gate = { kind : kind; fanin : int array }

type ee_info = {
  trigger : int;  (** Trigger gate id. *)
  support : int;  (** Bitmask of master input positions feeding the trigger. *)
  coverage : float;  (** Percent of master minterms covered. *)
  cost : float;  (** Value of the paper's cost function for this choice. *)
}

type t

val of_netlist : Ee_netlist.Netlist.t -> t
(** Direct mapping.  Source order matches netlist input order; sink order
    matches netlist output order. *)

val gates : t -> gate array

val gate : t -> int -> gate

val ee : t -> int -> ee_info option
(** Early-evaluation annotation of a master gate, if any. *)

val source_ids : t -> int array

val sink_ids : t -> int array

val pl_gate_count : t -> int
(** Number of PL gates excluding sources and sinks and excluding EE
    triggers — the paper's "PL Gates (no EE)" column. *)

val ee_gate_count : t -> int
(** Number of trigger gates — the paper's "EE Gates" column. *)

val topo : t -> int array
(** Every gate after all its fanins (and masters after their triggers). *)

val level : t -> int -> int
(** PL-gate depth: sources, constants and registers are 0; combinational
    and trigger gates are [1 + max fanin level]. *)

val arrival : t -> int -> int
(** Arrival estimate of the signal produced by a gate, in PL-gate units
    counted so that a primary input signal has arrival 1 (one token hop).
    This is the paper's relative-arrival-time weight, offset by one to keep
    the [Mmax/Tmax] ratio defined when a trigger is fed directly by
    inputs. *)

type ee_info_request = {
  req_support : int;
  req_func : Ee_logic.Lut4.t;
  req_coverage : float;
  req_cost : float;
}

val with_ee : t -> (int * ee_info_request) list -> t
(** Attach early-evaluation pairs: for each [(master, request)], append a
    trigger gate and annotate the master.  Masters must be [Gate]s and not
    already have EE. *)

val with_ee_shared : t -> (int * ee_info_request) list -> t
(** Like {!with_ee}, but masters whose triggers read the same sources and
    compute the same function share one trigger gate — the area
    optimization suggested by the paper's remark that one control signal
    can serve several destinations.  The shared trigger's [master] field
    names the first owner. *)

val strip_ee : t -> t
(** Remove all EE pairs (for baseline comparisons). *)

val to_dot : t -> string

val stats_string : t -> string
