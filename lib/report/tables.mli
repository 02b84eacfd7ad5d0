(** Renderers that regenerate each table of the paper (see the experiment
    index in DESIGN.md). *)

(** {1 Table 1 — master and trigger truth tables for the full-adder carry} *)

val table1 : unit -> Ee_util.Table.t
(** Rows "abc | master | trigger" for the carry-out [c(a+b) + ab] and its
    {a,b} trigger [ab + a'b']; coverage is printed by the caller. *)

val table1_coverage : unit -> float
(** The 50% of the paper. *)

(** {1 Table 2 — candidate trigger determination from the cube list} *)

val table2 : unit -> Ee_util.Table.t
(** Master prime cubes (ON and OFF) with their output value and their
    minterm contribution to the {a,b} coverage.  The cube rows are the
    prime covers computed by {!Ee_logic.Cubelist}; the paper prints an
    equivalent irredundant cover, with identical totals. *)

(** {1 Table 3 — the main experiment} *)

type row = {
  id : string;
  description : string;
  pl_gates : int;
  ee_gates : int;
  delay_no_ee : float;
  delay_ee : float;
  delay_diff : float;
  area_increase : float;  (** percent *)
  delay_decrease : float;  (** percent *)
  critical_cycle : string;
      (** The EE netlist's throughput-critical cycle (from
          {!Ee_perf.Throughput.critical_cycle}: one cycle-ratio solve, no
          slack pass), e.g. ["reg3>g12>out:u"] — makes
          bottlenecks greppable straight from suite CSV output. *)
}

type table3 = {
  rows : row list;
  avg_area_increase : float;
  avg_delay_decrease : float;
}

val table3_to_table : ?cycles:bool -> table3 -> Ee_util.Table.t
(** [cycles] (default false) appends the per-row critical-cycle column
    (used by [ee_synth suite --csv]). *)

val row :
  ?vectors:int ->
  ?seed:int ->
  ?config:Ee_sim.Sim.config ->
  id:string ->
  description:string ->
  Ee_core.Synth.report ->
  Ee_phased.Pl.t ->
  Ee_phased.Pl.t ->
  row
(** [row ~id ~description report pl pl_ee] measures one Table 3 row: both
    netlists are simulated on the same [vectors] random vectors from
    [seed] (defaults 100 and 2002) under [config] (default
    {!Ee_sim.Sim.default_config}), and the critical cycle of [pl_ee] is
    found with the same delays.  Gate counts and area come from [report],
    the selection policy's account of how [pl_ee] was made from [pl]. *)

val row_of_artifact :
  ?vectors:int -> ?seed:int -> ?config:Ee_sim.Sim.config -> Pipeline.artifact -> row
(** {!row} of a benchmark's pipeline artifact. *)
