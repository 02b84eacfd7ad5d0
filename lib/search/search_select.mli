(** EE selection with cross-master trigger sharing — the "Search" policy
    of {!Ee_engine.Engine}.

    Three phases:

    + {b Per-gate floor}: run {!Ee_core.Mcr_select.plan} unchanged.  Its
      plan and period λ_mcr are the baseline everything else is measured
      against.
    + {b Shared triggers}: group masters by the {e netlist signal set} a
      candidate support reads (each master contributes its [top_k] best
      candidate subsets).  For a group, the shared trigger is the
      intersection of the members' maximal triggers, computed at the
      signal level — it fires only when {e every} member is decided, so it
      is sound for each.  Re-attached through [Pl.with_ee_shared] the
      member triggers are structurally identical (canonical fanin order)
      and merge into one gate.  Each group is accepted only if the
      re-analyzed period does not regress — the same trial-re-analysis
      discipline [Mcr_select] applies to single insertions, extended to
      Extension 7-style sharing.
    + {b Guard}: if the final period somehow exceeds λ_mcr (float
      pathology — acceptance already forbids it), fall back to the plain
      MCR plan.  The "never worse λ than per-gate Mcr" acceptance
      criterion therefore holds by construction.

    The netlist cell stays a LUT4, so this selector consumes
    {!Ee_core.Trigger.candidates} (memoized) and ranks them with
    {!Ee_core.Trigger.best}.  Wider cones reach the same extractor,
    {!Ee_core.Trigger.extract}, only through the analysis endpoints
    ([ee_synth search], the daemon's [search] field, [bench --search]). *)

type options = {
  base : Ee_core.Mcr_select.options;  (** Phase-A selection + timing model. *)
  top_k : int;  (** Candidate subsets per master offered for sharing. *)
  max_groups : int;  (** Shared-group trials per run. *)
  min_masters : int;  (** Smallest group worth a trial (>= 2). *)
}

val default_options : options
(** [base = Mcr_select.default_options], [top_k = 8], [max_groups = 16],
    [min_masters = 2]. *)

type shared_group = {
  sg_signals : int list;  (** Netlist signal ids, ascending. *)
  sg_masters : int list;  (** Masters sharing the trigger, ascending. *)
  sg_coverage : float;  (** Mean member coverage percent. *)
  sg_trigger : Ee_logic.Truthtab.t;
      (** The shared function over [sg_signals] (variable [j] = signal
          [j]). *)
}

type report = {
  synth : Ee_core.Synth.report;
      (** Comparable with every other policy's report.  [inserted] lists
          the phase-A per-gate choices; gate counts reflect the final
          (shared) netlist. *)
  lambda_no_ee : float;
  lambda_mcr : float;  (** The per-gate MCR plan's period (the floor). *)
  lambda : float;  (** Final period; [<= lambda_mcr] always. *)
  shared_groups : shared_group list;  (** Accepted groups, in trial order. *)
  trials : int;  (** Groups actually trial-analyzed. *)
  fell_back : bool;  (** True iff the guard reverted to the MCR plan. *)
}

val run :
  ?options:options ->
  ?memo:Ee_core.Trigger.Memo.t ->
  Ee_phased.Pl.t ->
  Ee_phased.Pl.t * report
(** Deterministic for a given netlist and options. *)
