(** Whole-netlist early-evaluation synthesis (the post-processing pass the
    paper applies to mapped PL netlists).

    For every combinational PL gate, enumerate all candidate trigger
    functions over strict subsets of its inputs (at most three variables of
    a LUT4), weight each candidate by the cost function, and attach the
    best candidate whose cost exceeds the threshold — provided a speedup is
    possible at all, i.e. the candidate's inputs arrive strictly earlier
    than the master's latest input.  With [threshold = 0] this is the
    paper's "EE circuitry added to all PL gates where a speedup was
    possible"; raising the threshold trades delay for area (paper §4). *)

type options = {
  threshold : float;  (** Minimum cost for a pair to be inserted. *)
  weighting : Cost.weighting;
  min_coverage : float;  (** Minimum coverage percent (default 0: any). *)
  share_triggers : bool;
      (** Merge identical trigger gates across masters (area optimization;
          default off, matching the paper's one-trigger-per-master
          accounting). *)
}

val default_options : options
(** [threshold = 0.], [Arrival_weighted], [min_coverage = 0.], no sharing. *)

type gate_choice = {
  master : int;  (** PL gate id. *)
  chosen : Trigger.candidate;
  m_max : int;  (** Arrival of the latest master input. *)
  t_max : int;  (** Arrival of the latest trigger input. *)
  cost : float;
}

type report = {
  eligible_gates : int;  (** Combinational gates examined. *)
  inserted : gate_choice list;  (** One per EE pair, master id ascending. *)
  pl_gates : int;  (** Paper's "PL Gates (no EE)". *)
  ee_gates : int;  (** Paper's "EE Gates" = [List.length inserted]. *)
  area_increase_percent : float;  (** [ee_gates / pl_gates * 100]. *)
}

val plan :
  ?options:options -> ?memo:Trigger.Memo.t -> Ee_phased.Pl.t -> gate_choice list
(** Choose EE pairs without modifying the netlist.  [memo] is the trigger
    candidate cache to consult and fill (default: the calling domain's
    {!Trigger.Memo.domain_default}); it affects time only, never the
    plan. *)

(** {2 The attach-and-report step}

    Every selection policy ({!run}, [Budget.run], [Mcr_select.run],
    [Ee_search.Search_select.run]) ends the same way: package its choices
    as attachment requests, attach them, and count the result.  These
    three functions are that step, written once. *)

val request : Trigger.candidate -> float -> Ee_phased.Pl.ee_info_request
(** A chosen candidate (support, function, coverage) and its recorded
    cost, as a {!Ee_phased.Pl.with_ee} attachment request. *)

val make_report : Ee_phased.Pl.t -> Ee_phased.Pl.t -> gate_choice list -> report
(** [make_report pl pl' choices]: the report of a policy that chose
    [choices] on [pl] and produced the attached netlist [pl'].  Eligible
    gates are counted on [pl], PL and EE gates on [pl'].
    [Ee_search.Search_select] calls it directly, since its final netlist
    merges shared triggers. *)

val attach :
  share:bool -> Ee_phased.Pl.t -> gate_choice list -> Ee_phased.Pl.t * report
(** Attach the choices with {!Ee_phased.Pl.with_ee}, or
    {!Ee_phased.Pl.with_ee_shared} when [share], and report. *)

val run :
  ?options:options ->
  ?memo:Trigger.Memo.t ->
  Ee_phased.Pl.t ->
  Ee_phased.Pl.t * report
(** [plan], then {!attach} with [share = options.share_triggers]. *)
