(** Unified front-end for the synthesis + measurement flow.

    One {!spec} record replaces the [?options] / [~vectors] / [~seed] /
    [~threshold] plumbing that used to be threaded separately through
    [Ee_report.Pipeline], [Ee_report.Tables] and every executable.  Build a
    spec with {!default_spec} and the [with_*] combinators:

    {[
      let spec =
        Engine.default_spec
        |> Engine.with_threshold 50.
        |> Engine.with_vectors 400
      in
      let r = Engine.run ~spec (Ee_bench_circuits.Itc99.find "b04")
    ]}

    {!run_suite} fans the whole Table 3 experiment (pipeline build + timed
    simulation per benchmark) across an {!Ee_util.Pool} of domains.  Every
    per-benchmark computation is pure given the spec, so the parallel
    result is identical to the sequential one — only the wall clock
    changes.  Pass a {!Trace.t} to either entry point to collect
    per-stage spans. *)

type selection =
  | Eq1  (** The paper's arrival-weighted Eq. 1 ranking ({!Ee_core.Synth}). *)
  | Mcr
      (** Greedy maximum-cycle-ratio descent ({!Ee_core.Mcr_select}): insert
          the EE pair that most improves the analytic steady-state period,
          repeat until no pair helps. *)
  | Search
      (** {!Ee_search.Search_select}: the MCR plan as a floor, then
          shared multi-master triggers accepted only when the
          re-analyzed period does not regress — final λ is never worse than
          [Mcr]'s on the same netlist. *)

type spec = {
  threshold : float;  (** Minimum Eq. 1 cost to insert an EE pair. *)
  coverage_only : bool;  (** Rank candidates by coverage only (ablation). *)
  min_coverage : float;  (** Minimum trigger coverage percent. *)
  share_triggers : bool;  (** Merge identical trigger gates. *)
  vectors : int;  (** Random input vectors per simulation. *)
  seed : int;  (** PRNG seed. *)
  gate_delay : float;  (** PL gate firing latency. *)
  ee_overhead : float;  (** Extra Muller-C latency on EE masters. *)
  selection : selection;  (** EE-pair selection policy (default {!Eq1}). *)
  lut_k : int;
      (** Wide-LUT arity for the search-side analyses (4..8, default 4).
          The pipeline's netlist cell stays a LUT4 regardless; above 4 this
          only widens the cones the trigger {e search} endpoints
          ([ee_synth search], the daemon's search section) analyze. *)
}

val default_spec : spec
(** The paper's protocol: threshold 0, Eq. 1 weighting, 100 vectors,
    seed 2002, unit gate delay, 0.25 EE overhead. *)

val with_threshold : float -> spec -> spec
val with_coverage_only : bool -> spec -> spec
val with_min_coverage : float -> spec -> spec
val with_share_triggers : bool -> spec -> spec
val with_vectors : int -> spec -> spec
val with_seed : int -> spec -> spec
val with_gate_delay : float -> spec -> spec
val with_ee_overhead : float -> spec -> spec
val with_selection : selection -> spec -> spec

val with_lut_k : int -> spec -> spec
(** Raises [Invalid_argument] outside 4..8. *)

val selection_to_string : selection -> string
(** ["eq1"] / ["mcr"] / ["search"] — the wire names used by the serving
    protocol. *)

val selection_of_string : string -> selection option

val spec_fingerprint : spec -> string
(** A stable, injective rendering of every observable knob of the spec
    (floats in hex notation, so distinct values never collide by rounding).
    [Ee_serve] hashes it together with the canonical BLIF text of the
    netlist to form content-addressed cache keys; the leading [spec-v1]
    token must be bumped whenever a change to the synthesis flow makes old
    cached results stale for an identical spec (currently [spec-v2]). *)

val synth_options : spec -> Ee_core.Synth.options
(** The [Ee_core.Synth.options] slice of a spec. *)

val mcr_options : spec -> Ee_core.Mcr_select.options
(** The [Ee_core.Mcr_select.options] slice of a spec (used when
    [spec.selection = Mcr]; [threshold] and [coverage_only] do not apply). *)

val search_options : spec -> Ee_search.Search_select.options
(** The [Ee_search.Search_select.options] slice (used when
    [spec.selection = Search]). *)

val sim_config : spec -> Ee_sim.Sim.config
(** The [Ee_sim.Sim.config] slice of a spec. *)

val benchmarks : Ee_bench_circuits.Itc99.benchmark list
(** The fifteen Table 3 circuits (re-export of [Itc99.all]). *)

val find_benchmark : string -> (Ee_bench_circuits.Itc99.benchmark, string) Stdlib.result
(** Lookup by id with a helpful error message. *)

val plan : spec -> Ee_phased.Pl.t -> Ee_phased.Pl.t * Ee_core.Synth.report
(** The "ee-plan" stage of [spec.selection]: attach EE pairs to a PL
    netlist with {!Ee_core.Synth.run}, {!Ee_core.Mcr_select.run} or
    {!Ee_search.Search_select.run}, each given its slice of [spec].
    Trigger candidates are memoized in the calling domain's
    {!Ee_core.Trigger.Memo.domain_default}, which affects wall-clock,
    never results. *)

val build : spec -> Ee_bench_circuits.Itc99.benchmark -> Ee_report.Pipeline.artifact
(** The benchmark's netlist and both PL netlists, planned by {!plan}
    under [spec], without simulation: [Pipeline.build_staged ~plan:(plan
    spec)].  The daemon's [perf] and [faults] and the [ee_synth]
    subcommands build through it, so every consumer of a spec plans under
    its [selection]. *)

type result = {
  artifact : Ee_report.Pipeline.artifact;
  row : Ee_report.Tables.row;  (** The benchmark's Table 3 row. *)
}

val run : ?spec:spec -> ?trace:Trace.t -> Ee_bench_circuits.Itc99.benchmark -> result
(** Synthesize and simulate one benchmark, planning through {!plan}.  With
    [?trace], records one span per stage ([rtl], [bit-blast], [pl-map],
    [ee-plan], [sim]). *)

type failure = {
  failed_bench : string;  (** Benchmark id that failed. *)
  reason : string;  (** Exception text, or the deadline that expired. *)
  timed_out : bool;  (** True when the benchmark hit the suite deadline. *)
}

val failure_to_string : failure -> string

type suite = {
  results : (result, failure) Stdlib.result list;
      (** In benchmark order, independent of [domains].  A crashing or
          hanging benchmark degrades to an [Error] row; its siblings'
          results are unaffected. *)
  table3 : Ee_report.Tables.table3;  (** Computed over the [Ok] rows only. *)
  domains : int;  (** Pool size actually used. *)
  wall_clock_s : float;  (** End-to-end suite wall-clock, seconds. *)
}

val ok_results : suite -> result list

val failures : suite -> failure list

val run_suite :
  ?spec:spec ->
  ?trace:Trace.t ->
  ?domains:int ->
  ?deadline_s:float ->
  ?benchmarks:Ee_bench_circuits.Itc99.benchmark list ->
  unit ->
  suite
(** Run {!run} for every benchmark (default: all fifteen) on an
    {!Ee_util.Pool} of [domains] domains, the caller among them (default
    1 = inline on the calling domain; deterministic ordering either way).
    A benchmark that raises becomes an [Error] row carrying the exception
    text — it never unwinds the suite.

    Scheduling is one pool task per benchmark, submitted in input order,
    so a free domain takes the next row whatever the others cost, and
    rows come back in input order.  Each row plans through its domain's
    default {!Ee_core.Trigger.Memo}: a spawned worker's starts empty, and
    the calling domain's, which runs rows too, stays warm from one suite
    to the next.

    [?deadline_s] bounds how long each benchmark may keep the suite
    waiting: a benchmark with no result [deadline_s] seconds after its
    await turn is reported as a [timed_out] error row and its worker
    domain is abandoned rather than joined (OCaml domains cannot be
    killed, so the hung computation leaks until process exit).  That is
    the one difference between the two paths: without a deadline each
    row is awaited with {!Ee_util.Pool.try_await}, with one by
    {!Ee_util.Pool.await_timeout}, and the pool spawns all [domains]
    workers (even for [domains = 1]) so that no row runs on the caller,
    where a hung one would hang the suite; prefer [domains >= 2] so one
    hung benchmark does not stall the others' queue.  Raises
    [Invalid_argument] on a non-positive deadline. *)

val stage_names : string list
(** All stages a traced run records, in order:
    [Pipeline.stage_names @ ["sim"]]. *)
