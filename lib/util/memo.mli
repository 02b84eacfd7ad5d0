(** Explicit memoization contexts.

    A {!t} is a plain, {e unsynchronized} key→value table owned by whoever
    created it: the owner threads it through the computations that share
    results, and two contexts never exchange entries.  This replaces the
    process-global, mutex-guarded memo tables that used to serialize
    parallel synthesis (see DESIGN.md §6): a hot path holding its own
    context touches no lock at all.

    Three flavours cover every sharing pattern in the tree:

    - {!t} — single-owner context, created by a caller (a benchmark
      pass, a test) and threaded explicitly.
    - {!Dls} — one context per OCaml domain, looked up through
      [Domain.DLS].  The lock-free default when a caller does not thread a
      context explicitly: a suite row planned on a pool worker warms that
      worker's table, which starts empty on every freshly spawned domain.
    - {!Shared} — a mutex-wrapped context for cross-domain tables off the
      hot path (e.g. the server's canonical-BLIF memo), where the values
      are pure so a racing recompute is merely wasted work, never wrong.

    Contexts only make sense for {e pure} computations: an entry, once
    cached, is served forever. *)

type ('k, 'v) t

val create : ?size:int -> unit -> ('k, 'v) t
(** A fresh, empty context.  [size] is the initial hashtable sizing hint
    (default 64). *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [find_or_add t k compute] returns the cached value for [k], or runs
    [compute ()], stores the result under [k] and returns it.  If [compute]
    raises, nothing is stored.  Not domain-safe: a context must only ever
    be used by one domain at a time (use {!Shared} otherwise). *)

val find_opt : ('k, 'v) t -> 'k -> 'v option

val mem : ('k, 'v) t -> 'k -> bool

val entries : ('k, 'v) t -> int
(** Number of cached entries. *)

val hits : ('k, 'v) t -> int
(** [find_or_add] calls answered from the table. *)

val misses : ('k, 'v) t -> int
(** [find_or_add] calls that ran [compute]. *)

val clear : ('k, 'v) t -> unit
(** Drop all entries and reset the hit/miss counters. *)

(** One context per domain, for callers that do not thread one
    explicitly.  A {!key} is created once per use site (it names the
    memo's role, e.g. "LUT4 → trigger candidates"); [get] then yields the
    calling domain's own context — no lock, no sharing, nothing to
    invalidate when domains exit. *)
module Dls : sig
  type ('k, 'v) key

  val key : ?size:int -> unit -> ('k, 'v) key

  val get : ('k, 'v) key -> ('k, 'v) t
  (** The calling domain's context for this key (created on first use). *)
end

(** A mutex-guarded context for tables shared across domains.  The lock
    covers only table lookups and stores; {!find_or_add}'s [compute] runs
    {e outside} the lock, so two domains racing on the same cold key both
    compute — the values are pure, so the second store is a no-op, and the
    hot (warm) path holds the lock only for one hashtable probe.  Keep
    this off per-candidate hot paths; it exists for coarse, low-traffic
    tables like per-benchmark canonical BLIF text. *)
module Shared : sig
  type ('k, 'v) t

  val create : ?size:int -> unit -> ('k, 'v) t

  val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v

  val find_opt : ('k, 'v) t -> 'k -> 'v option

  val entries : ('k, 'v) t -> int
end
