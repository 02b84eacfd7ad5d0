(** Marked graphs (Commoner et al. 1971), the formal model underlying phased
    logic.

    Nodes are transitions (PL gates); arcs are places holding tokens (LEDR
    signals plus feedback/acknowledge wires).  A node fires by consuming one
    token from every incoming arc and producing one on every outgoing arc.

    The paper requires the PL netlist's marked graph to be {e live} (every
    directed cycle carries at least one token, and every arc lies on a
    directed cycle) and {e safe} (no reachable marking puts more than one
    token on an arc).  Both are decided here with the classical
    token-invariant characterizations:

    - live ⇔ the sub-graph of token-free arcs is acyclic, and every arc lies
      in some directed cycle;
    - safe (given live) ⇔ every arc lies on a directed cycle whose total
      token count is exactly one.

    Out-arcs and in-arcs are CSR arrays, each node's arcs in descending arc
    index.  One depth-first search, {!free_cycle}, serves liveness,
    {!token_free_cycle} and [Ee_phased.Rail_sim]'s stall forensics; safety
    is decided by a linear certificate (see {!is_safe}). *)

type t

val make : nodes:int -> arcs:(int * int * int) list -> t
(** [make ~nodes ~arcs] with arcs given as [(src, dst, tokens)].
    Raises [Invalid_argument] on out-of-range endpoints or negative
    tokens. *)

val node_count : t -> int

val arc_count : t -> int

val arcs : t -> (int * int * int) array
(** [(src, dst, tokens)] per arc, in construction order. *)

val tokens_on_cycles_ok : t -> bool
(** True iff every directed cycle carries at least one token (token-free
    sub-graph is acyclic). *)

val all_arcs_on_cycles : t -> bool
(** True iff every arc lies on some directed cycle. *)

val is_live : t -> bool
(** [tokens_on_cycles_ok && all_arcs_on_cycles]. *)

val is_safe : t -> bool
(** Every arc [(s, d, k)] lies on a cycle of at most one token (exactly one
    on a live graph).  A self-loop with [k <= 1] is certified, and so is an
    arc with a partner [(d, s, k')], [k + k' <= 1]: the one-token 2-cycle a
    PL data arc forms with its acknowledge.  The other arcs into [d] share
    one breadth-first search from [d], bounded at one token.  Every arc of
    [Flat.marked_graph] is certified, so there the check is linear. *)

val check_live_safe : t -> (unit, string) result
(** Human-readable diagnosis naming the first offending arc: liveness
    first, then the first unsafe arc scanning destinations ascending and,
    per destination, in-arcs from the highest index down. *)

(** {1 Token game} *)

type marking
(** Mutable token counts per arc. *)

val initial_marking : t -> marking

val tokens : marking -> int -> int

val marking_array : marking -> int array
(** Snapshot of the token counts, in arc order (a copy). *)

val marking_of_array : t -> int array -> marking
(** Inverse of {!marking_array}: a marking from explicit per-arc counts
    (used by forensics layers that reconstruct a marking from simulator
    state).  Raises [Invalid_argument] on length mismatch or negative
    counts. *)

val adjust_tokens : marking -> arc:int -> delta:int -> unit
(** Fault injection: add or remove tokens on one arc, bypassing the firing
    rule (token duplication / token loss).  Raises [Invalid_argument] if the
    arc index is out of range or the count would go negative. *)

val enabled : t -> marking -> int -> bool
(** A node is enabled when every incoming arc holds at least one token. *)

val fire : t -> marking -> int -> unit
(** Fires an enabled node.  Raises [Invalid_argument] if not enabled. *)

val enabled_nodes : t -> marking -> int list

val run_token_game : t -> steps:int -> rng:Ee_util.Prng.t ->
  [ `Ok of int array | `Unsafe of int * marking | `Dead of marking ]
(** Fire random enabled nodes for [steps] steps.  Returns firing counts,
    [`Unsafe (arc, marking)] the first time an arc exceeds one token, or
    [`Dead marking] if no node is enabled (impossible in a live graph).
    Both failure tags carry the marking at the moment of failure so the
    caller can run {!diagnose} on it. *)

val run_token_game_from : t -> marking -> steps:int -> rng:Ee_util.Prng.t ->
  [ `Ok of int array | `Unsafe of int * marking | `Dead of marking ]
(** Like {!run_token_game} but starting from an arbitrary (e.g. corrupted)
    marking, which is mutated in place.  The initial marking is itself
    checked for safety, so an injected duplicate token is reported before
    any firing. *)

(** {1 Deadlock forensics} *)

type scratch
(** Stamped working storage for {!free_cycle}, sized to one graph; reusing
    it makes a search allocate nothing but the cycle it returns. *)

val scratch : t -> scratch

val free_cycle : t -> scratch -> free:(int -> bool) -> int list
(** A directed cycle (as a node list, in order) of arcs satisfying [free]
    (given by arc index), [[]] when there is none.  Depth-first search with
    roots ascending and each node's out-arcs in descending arc index; the
    first arc that closes a cycle on the current path wins.  Iterative, so
    its depth is not bounded by the stack. *)

val token_free_cycle : t -> marking -> int list option
(** {!free_cycle} over the arcs holding zero tokens under the marking — the
    structural reason no token can ever return to those nodes.  [None] when
    every cycle still holds a token. *)

type deadlock = {
  dead_marking : int array;  (** Tokens per arc when the game stalled. *)
  dead_enabled : int list;  (** Nodes still enabled (empty for a true deadlock). *)
  dead_cycle : int list;  (** A token-free directed cycle to blame, [] if none. *)
}

val diagnose : t -> marking -> deadlock
(** Explain a stalled marking: which nodes could still fire, and which
    token-free cycle starves the rest.  The node ids are PL gate ids when
    the graph came from [Ee_phased.Flat.marked_graph], so the report names
    the gates responsible. *)

