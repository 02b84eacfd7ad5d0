(** The analytic-throughput experiment (EXPERIMENTS.md Extensions 12–13):
    maximum-cycle-ratio predictions from {!Ee_perf.Throughput} side by side
    with [Ee_sim.Stream_sim] steady-state measurements, plus the MCR-greedy
    vs. Equation-1 selection comparison.  Rendered by [ee_synth perf] and
    serialized to [BENCH_perf.json] by the bench runner. *)

type bench_row = {
  id : string;
  description : string;
  lambda_no_ee : float;  (** Analytic steady-state period without EE. *)
  karp_gap : float;
      (** |Karp − Howard| on the no-EE event graph (nan if Karp found no
          cycle — never the case for a live netlist). *)
  sim_no_ee : float;  (** Measured steady-state cycle time without EE. *)
  err_no_ee : float;  (** Percent gap between the two, relative to analytic. *)
  lambda_eager : float;  (** EE period, optimistic (every trigger early). *)
  lambda_expected : float;  (** EE period, coverage-weighted. *)
  lambda_guarded : float;  (** EE period, pessimistic (no early firing). *)
  sim_ee : float;  (** Measured EE cycle time. *)
  err_ee : float;  (** Percent gap vs. [lambda_expected]. *)
  analytic_gain : float;  (** Predicted EE speedup percent (expected mode). *)
  critical_cycle : string;  (** No-EE critical cycle, gate names. *)
  tightest : (string * float) list;  (** Top-5 bottleneck gates and slacks. *)
}

val analyze_bench :
  ?config:Ee_sim.Stream_sim.config -> ?waves:int -> ?seed:int -> Pipeline.artifact -> bench_row
(** Analysis of a built artifact (its [pl] and [pl_ee], planned by
    whatever policy built it) plus a 240-wave (default) stream
    measurement. *)

type selection_row = {
  sel_id : string;
  eq1_gates : int;  (** EE pairs inserted by Equation-1 ranking. *)
  mcr_gates : int;  (** EE pairs inserted by the MCR-greedy policy. *)
  eq1_lambda : float;  (** Analytic EE period under each policy... *)
  mcr_lambda : float;
  eq1_gain : float;  (** ...and measured throughput gain percent. *)
  mcr_gain : float;
  overlap_percent : float;
      (** Share of MCR-chosen masters that Eq. 1 also chose. *)
}

val compare_selection :
  ?mcr_options:Ee_core.Mcr_select.options ->
  ?config:Ee_sim.Stream_sim.config ->
  ?waves:int ->
  ?seed:int ->
  Pipeline.artifact ->
  selection_row
(** The Equation-1 plan of an artifact built under the Eq. 1 policy (its
    [pl_ee] and [synth_report]) against an MCR-greedy plan of its [pl]. *)

type t = {
  rows : bench_row list;
  selection : selection_row list;
}

val run :
  ?options:Ee_core.Synth.options ->
  ?config:Ee_sim.Stream_sim.config ->
  ?waves:int ->
  ?seed:int ->
  ?benchmarks:Ee_bench_circuits.Itc99.benchmark list ->
  ?selection_benchmarks:Ee_bench_circuits.Itc99.benchmark list ->
  unit ->
  t
(** Defaults: all fifteen benchmarks for both halves, 240 waves, seed 11
    (selection measurements use 200 waves, seed 4, matching the tests). *)

val geomean_sim_ratio : t -> float
(** Geometric mean of measured/analytic no-EE period — 1.0 means the model
    is calibrated. *)

val geomean_analytic_speedup : t -> float
(** Geometric mean of [lambda_no_ee / lambda_expected] (>= 1). *)

val to_table : t -> Ee_util.Table.t
val selection_to_table : t -> Ee_util.Table.t

val to_json : t -> string
(** The [BENCH_perf.json] payload. *)
