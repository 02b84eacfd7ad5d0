(** Maximum cycle ratio of a timed event graph.

    For a strongly-connected timed marked graph the steady-state period is
    [lambda* = max_C sum weight(C) / sum tokens(C)] over directed cycles [C]
    (Ramchandani 1973).  {!solve} computes it with Howard's policy iteration
    (Cochet-Terrasson et al. 1998) — experimentally near-linear and the
    fastest known algorithm in practice — and returns a critical cycle
    attaining the ratio.  {!karp} recomputes the same value by a token-level
    unfolding of Karp's minimum-mean-cycle theorem (Karp 1978), sharing no
    code with Howard; the test suite and the bench harness use it as an
    independent cross-check.

    Both raise {!Not_live} when they meet a token-free cycle: such a graph
    has no steady state (the corresponding marked graph deadlocks), so a
    cycle ratio would be meaningless. *)

exception Not_live of string

type result = {
  lambda : float;  (** The maximum cycle ratio — steady-state period. *)
  cycle : int list;  (** Nodes of a critical cycle, in arc order. *)
  cycle_arcs : int list;  (** Arc indices of the cycle's arcs. *)
  policy : int array;
      (** The converged policy as a successor per node: the head of the
          node's policy arc, or [-1] for a node that reaches no cycle.  Fit
          to pass back as a [hint]. *)
}

(** {2 Howard's policy iteration}

    [solve] and [lambda] work on a compressed-sparse-row view of the graph
    built once per call: an offset array of [nodes + 1] entries, and flat
    arrays of head node, weight, token count and arc index, where node
    [v]'s out-arcs occupy positions [off.(v)] to [off.(v+1) - 1].  Within a
    node the arcs are stored, and every policy step visits them, in
    {e descending} arc index; together with the ascending node sweep this
    fixes the iteration's trajectory, so a cold solve is deterministic.

    {b Warm start.}  [hint] proposes an initial successor per node (index
    [v] names the node [v]'s policy arc should lead to).  A node takes the
    first live out-arc to its hinted successor; it falls back to its first
    live out-arc when the entry is missing, negative, out of range, names a
    dead node or names no successor of [v].  The hint is there to change
    the number of policy iterations, not the answer: every starting policy
    converges to the maximum cycle ratio, and the test suite checks that
    warm and cold solves return bit-identical λ on random graphs and on
    every trial graph of the ITC99 MCR plans.  (Where several cycles
    attain the maximum, the critical cycle reported may differ.)  Near a
    previous solution — the policy of a netlist the graph extends by one
    EE pair — a hint saves most of the iterations. *)

val solve : ?hint:int array -> Timed_graph.t -> result option
(** Howard's policy iteration, then a critical cycle and the policy.
    [None] when the graph has no directed cycle at all (then every schedule
    is a one-shot and the period is 0).  A fixed tolerance, [eps] = 1e-12
    scaled by the largest weight, separates ratio and potential
    improvements from float noise. *)

val lambda : ?hint:int array -> ?cutoff:float -> Timed_graph.t -> float option
(** [solve]'s [lambda] alone, without extracting a cycle or building the
    policy array: the cheap oracle for trial re-analysis.

    {b Cutoff.}  After each policy evaluation every policy cycle is a cycle
    of the graph, so its ratio is a lower bound on [lambda*].  With
    [cutoff], the iteration stops as soon as such a ratio exceeds [cutoff]
    by more than twice the scaled [eps], and returns the ratio less [eps]
    (the same cycle summed from another root can differ in its last bits,
    so the bare ratio could lie an ulp above the converged [lambda*]).  The
    contract: when [lambda* <= cutoff] the result is [lambda*] bit for bit,
    exactly as without [cutoff]; otherwise it is some value in
    [(cutoff, lambda*]].  So a caller that only asks "is [lambda*] at most
    [cutoff]?" gets the same answer, and the same value whenever the answer
    is yes, while a trial that is sure to lose stops early.  The default,
    [infinity], never stops. *)

(** {2 Solver contexts and spliced trials}

    A selection round solves one base graph and then many trials, each the
    base with a few arcs changed ({!Timed_graph.delta}).  A context
    compiles the base once: its rows, and the check that it has no
    token-free cycle.  A trial then rebuilds only the rows whose arcs
    change, into scratch arrays the context keeps from trial to trial. *)

type context
(** A compiled graph.  Its trial scratch is reused by every
    {!splice_lambda} on it, so a context must not be shared between
    domains. *)

val context : Timed_graph.t -> context
(** Compile the graph's rows and check it.  Raises {!Not_live} on a
    token-free cycle. *)

val solve_in : ?hint:int array -> context -> result option
(** [solve] on the context's graph; [solve g] is [solve_in (context g)]. *)

val splice_lambda :
  ?hint:int array ->
  ?cutoff:float ->
  context ->
  Timed_graph.delta ->
  float option
(** [lambda ?hint ?cutoff (Timed_graph.splice g d)] for the context's
    graph [g], bit for bit, including the cutoff contract and the
    iteration count, without building the spliced graph: its rows are laid
    out as [lambda] would lay them out.  The token-free check runs on the
    nodes reachable from the added token-free arcs (the base is known
    clean, so a token-free cycle must use one of them) and raises
    {!Not_live} as the full check would.  [hint] indexes the trial's
    nodes, so the base's converged [policy] can be passed as it is: the
    base events keep their numbers, and appended nodes, having no entry,
    start on their first live arc.  Raises [Invalid_argument] when the
    delta has fewer nodes than the graph or [add] is over another node
    count. *)

val karp : Timed_graph.t -> float option
(** Independent cross-check: per strongly-connected component, unfold the
    graph into token levels (token arcs advance one level, token-free arcs
    propagate inside a level in topological order) and apply Karp's
    max-mean formula over the level profiles.  Returns the global maximum
    ratio, or [None] when the graph is acyclic.  Exact up to float rounding
    — agreement with {!solve} within 1e-9 relative is asserted by the test
    suite on all ITC99 graphs and on random live graphs. *)

val potentials : Timed_graph.t -> lambda:float -> float array
(** Longest-path potentials [d] under reduced arc lengths
    [weight - lambda * tokens], from an implicit super-source ([d >= 0]).
    Converges iff no cycle is positive at [lambda], i.e. iff
    [lambda >= lambda*]; raises [Invalid_argument] otherwise. *)

val arc_slacks : Timed_graph.t -> lambda:float -> float array
(** Per-arc slack [d(dst) - d(src) - weight + lambda*tokens >= 0] with [d]
    from {!potentials}.  An arc is {e critical} (lies on a maximum-ratio
    cycle, or on a tight chain feeding one) iff its slack is 0; in general
    the slack is a lower bound on how much the arc's weight may grow before
    the period degrades. *)

val arc_slacks_in : context -> lambda:float -> float array
(** [arc_slacks] on the context's graph, from the rows it already holds. *)
