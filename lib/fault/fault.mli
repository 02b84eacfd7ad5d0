(** Fault models for phased-logic netlists.

    Each fault is a small value translated by {!hooks} into a
    {!Ee_phased.Rail_sim.hooks} record, so injection happens inside the one
    true rail-level simulator rather than a forked copy of it.  The models
    follow the physics of an LEDR wire pair:

    - a {e stuck rail} pins one of the two wires; a transition that needed
      that wire is silently eaten (consumers starve — deadlock), while a
      transition on the other wire still passes, possibly carrying a wrong
      value;
    - a {e glitch} inverts one wire of one transition: either it cancels
      the legal rail flip (starvation) or it adds a second flip, which is
      an observable LEDR breach;
    - {e trigger corruption} forces the trigger wire an early-evaluation
      master samples, making it fire early without justification (or not
      early at all);
    - {e token loss / duplication} suppress or repeat a gate's firing,
      the marked-graph-level faults. *)

type rail = V | T  (** The value and timing wires of an LEDR pair. *)

type t =
  | Stuck_rail of { gate : int; rail : rail; value : bool }
      (** The given wire of the gate's output pair is pinned to [value]
          from the start of the run (a permanent stuck-at fault). *)
  | Glitch_rail of { gate : int; rail : rail; wave : int }
      (** The given wire is inverted on the transition the gate drives in
          wave [wave] (a single transient upset). *)
  | Trigger_corrupt of { master : int; wave : int; forced : bool }
      (** The EE master samples [forced] instead of the real trigger value
          in wave [wave].  [forced = true] can cause an unjustified early
          firing; [forced = false] suppresses early evaluation (which must
          be harmless — EE is a pure speedup). *)
  | Token_loss of { gate : int; wave : int }
      (** The gate's firing is suppressed for wave [wave]. *)
  | Token_dup of { gate : int; wave : int }
      (** The gate latches twice in wave [wave]. *)

val to_string : t -> string

val site : t -> int
(** The gate the fault strikes: the gate whose latch or firing {!hooks}
    alter, or the master whose trigger read they force.  The hooks act on
    no other gate. *)

val hooks : t -> Ee_phased.Rail_sim.hooks
(** The instrumentation record injecting exactly this fault. *)

val window : t -> int * int
(** [(first, last)]: the waves in which {!hooks} can act.  In every other
    wave each hook behaves as in {!Ee_phased.Rail_sim.no_hooks}.  A stuck
    rail is active from wave 0 on ([last = max_int]); a transient only in
    its own wave. *)

val enumerate : Ee_phased.Pl.t -> waves:int -> t list
(** The standard campaign fault list: stuck-at faults on both rails and
    polarities of every token-producing gate (sources, constants,
    registers, combinational gates and triggers), plus glitch, token-loss,
    token-duplication and (for EE masters) trigger-corruption transients
    at wave [waves / 2].  Raises [Invalid_argument] when [waves < 1]. *)
