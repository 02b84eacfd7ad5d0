(** Area-budgeted early-evaluation selection.

    The paper controls area with a cost {e threshold}; an equivalent,
    often more convenient knob is a hard budget on the number of trigger
    gates ("spend at most K extra gates").  Selection greedily keeps the
    K candidates with the highest Equation-1 cost, which for a fixed
    per-pair area of one trigger gate is the optimal knapsack choice under
    the cost model. *)

val select : ?options:Synth.options -> Ee_phased.Pl.t -> budget:int -> Synth.gate_choice list
(** The plan restricted to the [budget] highest-cost choices (ties broken
    by master id for determinism). *)

val run : ?options:Synth.options -> Ee_phased.Pl.t -> budget:int -> Ee_phased.Pl.t * Synth.report
(** [select], then {!Synth.attach} without sharing ([share_triggers] does
    not apply to a budgeted plan). *)

val pareto :
  ?options:Synth.options ->
  ?vectors:int ->
  ?seed:int ->
  Ee_phased.Pl.t ->
  budgets:int list ->
  (int * float * float) list
(** [(budget, area_increase_percent, avg_settle)] per budget — the
    area/delay trade-off curve by budget rather than by threshold. *)
