(** Fault-injection campaigns over a phased-logic netlist.

    For every fault {!Fault.enumerate} produces, the campaign runs the
    rail-level simulator with that fault injected and the same random
    input vectors, compares against the synchronous golden model, and
    classifies the outcome:

    - {e masked} — all outputs correct; the fault never mattered;
    - {e detected} — the simulator raised
      {!Ee_phased.Rail_sim.Protocol_violation}: the LEDR/PL protocol
      itself witnessed the fault (double-rail transition, double firing,
      contradicted early evaluation, …);
    - {e deadlock} — the wave stalled; the {!Ee_phased.Rail_sim.stall}
      payload carries the forensics (root gates, token-free cycle);
    - {e wrong-output} — the circuit silently computed the wrong answer,
      the only genuinely dangerous class.

    The report also re-runs the {e fault-free} netlist under the
    adversarial delay schedules of {!Ee_sim.Delay_model}; a
    delay-insensitive netlist must agree with the golden model under all
    of them (and early evaluation must stay correct with its late inputs
    maximally delayed).

    {b Simulating only what a fault changes.}  {!run} classifies every
    fault exactly as {!run_fault} would, but skips the waves, and the
    gates, in which the fault cannot differ from the fault-free run:

    - {e checkpoints} — the unit-delay schedule check is the fault-free run,
      recorded by {!Ee_phased.Rail_sim.trace}.  A fault whose hooks leave
      the fault-free run unchanged before wave [w] is forked
      ({!Ee_phased.Rail_sim.fork}) from the wave-[w] boundary: [w] is
      where its {!Fault.window} opens, or, for a stuck rail, the first wave
      in which the fault-free run latches the other value on the stuck
      wire of that gate (never: the fault is [Masked]);
    - {e divergent sets} — each faulty wave evaluates only the gates the
      fault can reach from {!Fault.site} and from the gates it has already
      changed, and replays the trace for the rest;
    - {e reconvergence} — after the window's last wave, a faulted state
      equal to the fault-free one at the same wave boundary
      ({!Ee_phased.Rail_sim.diverged} is false) has the fault-free future,
      which agrees with the golden model: the fault is [Masked] without
      running the remaining waves.

    These rules rely on the simulator being deterministic and its hooks
    pure and confined to the fault's site and window.  When the fault-free
    unit-delay run disagrees with the golden model or raises, there is
    nothing to fork from, and every fault runs cold from wave 0. *)

type outcome =
  | Masked
  | Detected of string  (** [Protocol_violation] message. *)
  | Deadlock of Ee_phased.Rail_sim.stall
  | Wrong_output of { wave : int }  (** First wave with a wrong output. *)

val outcome_class : outcome -> string
(** ["masked" | "detected" | "deadlock" | "wrong-output"]. *)

val outcome_detail : outcome -> string

type record = { fault : Fault.t; outcome : outcome }

type schedule_check = {
  schedule : string;  (** ["unit" | "adversarial-ee" | "extremal" | "jittered"]. *)
  agrees : bool;  (** Outputs identical to the golden model. *)
  early_total : int;  (** Early firings summed over the run. *)
}

type report = {
  bench : string;
  pl_gates : int;
  waves : int;
  seed : int;
  records : record list;  (** One per enumerated fault, in order. *)
  schedules : schedule_check list;  (** Fault-free adversarial-delay runs. *)
  masked : int;
  detected : int;
  deadlock : int;
  wrong_output : int;
}

val run :
  ?waves:int -> ?seed:int -> bench:string -> Ee_phased.Pl.t -> Ee_netlist.Netlist.t -> report
(** Sweep every enumerated fault over [waves] random vectors (default 16,
    seed 2002).  [bench] only labels the report.  Raises
    [Invalid_argument] when [waves < 1]. *)

val run_fault :
  Ee_phased.Pl.t ->
  vectors:bool array list ->
  expected:bool array list ->
  Fault.t ->
  outcome
(** One fault against precomputed vectors and golden outputs, simulated
    cold from wave 0: the reference {!run} agrees with. *)

val check_schedules :
  Ee_phased.Pl.t ->
  vectors:bool array list ->
  expected:bool array list ->
  seed:int ->
  schedule_check list
(** The fault-free netlist under the unit-delay schedule and the three
    adversarial ones.  Every schedule runs all waves; one whose run raises
    {!Ee_phased.Rail_sim.Protocol_violation} or
    {!Ee_phased.Rail_sim.Stalled} disagrees, with [early_total] counted up
    to the raise. *)

(** {1 Token-game audit}

    The same loss/duplication faults at the marked-graph level: corrupt
    the initial marking one arc at a time, run the token game from the
    corrupted marking, and let {!Ee_markedgraph.Marked_graph.diagnose}
    explain the result.  A lost token must starve a token-free cycle
    (deadlock); a duplicated token must trip the safety check. *)

type token_verdict =
  | Audit_live  (** The game survived [steps] firings. *)
  | Audit_dead of Ee_markedgraph.Marked_graph.deadlock
  | Audit_unsafe of int  (** Arc that exceeded one token. *)

type token_audit = { arc : int; delta : int; verdict : token_verdict }

val token_audit : ?max_arcs:int -> Ee_phased.Pl.t -> steps:int -> seed:int -> token_audit list
(** For up to [max_arcs] (default 64, stride-sampled) arcs: remove a token
    where one sits ([delta = -1]) and add one everywhere ([delta = +1]).
    Raises [Invalid_argument] when [max_arcs < 1]. *)

(** {1 Rendering} *)

val to_json : report -> string

val to_csv : report -> string
(** One line per fault: [bench,fault,class,detail]. *)

val summary_string : report -> string
(** One-line per-benchmark summary for tables. *)
