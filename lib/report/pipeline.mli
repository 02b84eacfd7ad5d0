(** The full synthesis pipeline of the paper, from RTL benchmark to a pair
    of PL netlists (without and with early evaluation):

    RTL → bit-blast → LUT4 map → PL map → EE post-processing.

    The staged entry point {!build_staged} lets a caller wrap every stage
    (the hook {!Ee_engine.Trace} uses for per-stage spans); {!build} is the
    pipeline with no hook.  A whole Table 3 suite, simulated, is
    [Ee_engine.Engine.run_suite]. *)

type artifact = {
  id : string;
  description : string;
  design : Ee_rtl.Rtl.design;
  netlist : Ee_netlist.Netlist.t;
  pl : Ee_phased.Pl.t;  (** Without EE. *)
  pl_ee : Ee_phased.Pl.t;  (** With EE pairs attached. *)
  synth_report : Ee_core.Synth.report;
}

type instrument = { wrap : 'a. string -> (unit -> 'a) -> 'a }
(** A polymorphic stage hook: [wrap stage f] must behave as [f ()]; it may
    time, log or trace around the call. *)

val no_instrument : instrument
(** [wrap _ f = f ()]. *)

val stage_names : string list
(** The build stages, in execution order: ["rtl"; "bit-blast"; "pl-map";
    "ee-plan"] (simulation is a separate stage owned by the caller). *)

val build_staged :
  ?options:Ee_core.Synth.options ->
  ?memo:Ee_core.Trigger.Memo.t ->
  ?plan:(Ee_phased.Pl.t -> Ee_phased.Pl.t * Ee_core.Synth.report) ->
  ?instrument:instrument ->
  Ee_bench_circuits.Itc99.benchmark ->
  artifact
(** Run the pipeline with each stage passed through [instrument].  [plan]
    replaces the default "ee-plan" stage ([Synth.run ~options]) with an
    alternative selection policy — e.g. [Ee_core.Mcr_select.run]; when
    given, [options] {e and} [memo] are ignored (bake the context into the
    closure).  [memo] is the trigger-candidate context the default plan
    threads into [Synth.run]. *)

val build : ?options:Ee_core.Synth.options -> Ee_bench_circuits.Itc99.benchmark -> artifact
(** [build_staged ?options b] with no stage hook and the default Eq. 1
    "ee-plan" stage: one benchmark's netlist and both PL netlists, without
    simulation.  The bench tables build through it; a caller holding an
    [Ee_engine.Engine.spec] builds with [Engine.build], which plans under
    the spec's selection. *)

val check_live_safe : artifact -> (unit, string) result
(** Marked-graph liveness and safety of both PL netlists. *)
