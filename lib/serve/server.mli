(** The [ee_synthd] synthesis service: a sharded fleet of socket event
    loops in front of one shared {!Ee_util.Pool} of worker domains and one
    shared {!Ee_cache.Cache} of content-addressed results.

    Serving model:
    - an acceptor loop owns the listen socket and deals new connections
      round-robin to [shards] IO shards; each shard is a domain running a
      [Unix.select] loop over its own connections plus a self-pipe that
      pool workers write to when a result completes — so results are
      delivered as soon as they exist, not on a poll tick, and the select
      timeout only has to cover pending request deadlines (nearest
      deadline first) and the stop flag;
    - requests are NDJSON lines ({!Protocol}); all complete lines of one
      read are classified as a batch and the admitted ones submitted to
      the pool as slices ([map_chunked]-style, at most two slices per
      worker), each element with its own result slot so one slow element
      never delays a finished sibling;
    - admission is graded, not binary.  With [i] requests in flight
      (batch-locally adjusted): cacheable work ([synth]/[perf]/[faults])
      is admitted until [i >= max_pending] ([overloaded]); non-cacheable
      work ([sleep]) is admitted below the throttle watermark (half of
      [max_pending]), answered [throttled] from there, [shed] from the
      shed watermark (three quarters), and
      [overloaded] at the hard bound.  Every rejection carries a
      ["retry_after_s"] hint derived from an EWMA of worker occupancy;
    - each admitted request may carry a deadline (its own ["deadline_s"],
      else [default_deadline_s]); when it expires the client gets a
      [deadline_exceeded] error while the computation finishes in the
      background and still populates the cache (OCaml domains cannot be
      cancelled);
    - results are cached under a digest of (request kind, canonical BLIF
      of the netlist, {!Ee_engine.Engine.spec_fingerprint}, run
      parameters).  The shards share one [Cache.t]; computation happens
      outside its lock.  With [cache_dir] the directory is a
      cross-instance tier (see {!Ee_cache.Cache}): two daemons on one
      host can share it safely;
    - [stats]/[ping]/[shutdown] are answered inline by the owning shard;
      [stats] reports per-tier admission counts, per-shard request counts
      and balance, and disk-tier size alongside the existing per-command
      latency percentiles.

    Responses on one connection are delivered in request order; concurrency
    comes from pipelining on a connection and from multiple connections
    spread over the shards.

    Limits: the loops use [Unix.select], so every file descriptor must be
    below [FD_SETSIZE] (1024 on Linux) — the practical per-process bound
    is roughly 900 concurrent connections across all shards. *)

type address = [ `Unix of string | `Tcp of string * int ]

type config = {
  address : address;
  shards : int;  (** IO shard domains (clamped to 1..64). *)
  domains : int;  (** Worker domains in the compute pool. *)
  max_pending : int;  (** Hard admission bound: max requests in flight. *)
  backlog : int option;
      (** Listen backlog.  Default [max 64 max_pending] — sized so a
          connection burst survives until the acceptor catches up. *)
  default_deadline_s : float option;  (** Per-request default; [None] = no deadline. *)
  cache_max_bytes : int;
  cache_dir : string option;  (** Persist cache entries here when set (cross-instance tier). *)
  trace : Ee_engine.Trace.t option;
      (** When set, every request records a span (and [synth] its pipeline
          stages).  Spans accumulate for the server's lifetime — meant for
          bounded profiling sessions, not always-on production use. *)
  shutdown_grace_s : float;
      (** How long shutdown waits for in-flight requests before answering
          them with [shutting_down]. *)
  max_request_bytes : int;  (** Per-connection line-length bound. *)
  log : string -> unit;  (** Daemon log sink ([prerr_endline] or [ignore]). *)
}

val default_config : config
(** Unix socket ["ee_synthd.sock"], 1 shard, pool of
    [Domain.recommended_domain_count], [max_pending] = 4× domains,
    default backlog, no default deadline, 64 MiB in-memory
    cache, no persistence, no trace, 5 s grace, 8 MiB request bound,
    silent log. *)

val tier_thresholds : config -> int * int
(** [(throttle, shed)]: [max 1 (max_pending / 2)] and
    [max throttle (3 * max_pending / 4)]. *)

val backlog_of : config -> int
(** The listen backlog after defaulting. *)

val cache_of_config : config -> Ee_cache.Cache.t
(** The cache [serve] would create — exposed so tests and benches can
    inspect a shared instance by building it first and passing it via
    {!serve}'s [?cache]. *)

val serve : ?cache:Ee_cache.Cache.t -> ?stop:bool Atomic.t -> config -> unit
(** Run the service until a [shutdown] request arrives or [stop] (checked
    every loop tick, settable from a signal handler) becomes true.  Binds
    the socket, owns it for the duration, spawns and joins the shard
    domains, and removes a Unix socket file on exit.  Raises
    [Unix.Unix_error] if the address cannot be bound. *)
