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
    - requests are NDJSON lines ({!Protocol}); a connection whose
      unfinished line grows past 8 MiB is answered [bad_request] and
      closed.  All complete lines of one read are classified as a batch
      and the admitted ones submitted to the pool as slices
      ([map_chunked]-style, at most two slices per worker), each element
      with its own result slot so one slow element never delays a
      finished sibling;
    - what happens to a line between its read and its reply — inline
      commands and cache hits, the graded admission ladder (see
      {!tier_thresholds}; rejections carry a ["retry_after_s"] hint from
      an EWMA of worker occupancy), deadlines (a request's own
      ["deadline_s"], else [default_deadline_s]), in-order delivery and
      the shutdown flush — is {!Lifecycle}, which reaches the clock, the
      pool, the sockets and the metrics only through its [ops] record.
      An expired deadline answers [deadline_exceeded] while the
      computation finishes in the background and still fills the cache
      (OCaml domains cannot be cancelled);
    - results are cached under a digest of (request kind, canonical BLIF
      of the netlist, {!Ee_engine.Engine.spec_fingerprint}, run
      parameters).  The shards share one [Cache.t]; computation happens
      outside its lock.  With [cache_dir] the directory is a
      cross-instance tier (see {!Ee_cache.Cache}): two daemons on one
      host can share it safely;
    - [stats] reports per-tier admission counts, per-shard request counts
      and balance, and disk-tier size alongside the per-command latency
      percentiles.

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
  shutdown_grace_s : float;
      (** How long shutdown waits for in-flight requests before answering
          them with [shutting_down]. *)
  log : string -> unit;  (** Daemon log sink ([prerr_endline] or [ignore]). *)
}

val default_config : config
(** Unix socket ["ee_synthd.sock"], 1 shard, pool of
    [Domain.recommended_domain_count], [max_pending] = 4× domains,
    default backlog, no default deadline, 64 MiB in-memory
    cache, no persistence, 5 s grace, silent log. *)

val tier_thresholds : config -> int * int
(** [(throttle, shed)]: [max 1 (max_pending / 2)] and
    [max throttle (3 * max_pending / 4)]. *)

val backlog_of : config -> int
(** The listen backlog after defaulting. *)

val host_port : string -> (string * int, string) result
(** Parse a [--tcp] value [HOST:PORT] (port 1..65535); [Error] is the
    message a command line prints. *)

val sockaddr : address -> Unix.socket_domain * Unix.sockaddr
(** Resolve an address: a TCP host is a numeric address or, failing
    that, looked up by name.  Raises [Not_found] for an unknown host. *)

val serve : ?cache:Ee_cache.Cache.t -> ?stop:bool Atomic.t -> config -> unit
(** Run the service until a [shutdown] request arrives or [stop] (checked
    every loop tick, settable from a signal handler) becomes true.  Binds
    the socket, owns it for the duration, spawns and joins the shard
    domains, and removes a Unix socket file on exit.  Raises
    [Unix.Unix_error] if the address cannot be bound. *)

val daemon :
  ?jobs:int -> ?shards:int -> ?queue:int -> ?backlog:int -> ?deadline:float ->
  ?cache_dir:string -> ?tier:string -> cache_mb:int -> log:(string -> unit) ->
  stop:bool Atomic.t -> address -> unit
(** What both daemon command lines run: {!serve} on [default_config] with
    [jobs] worker domains (at least 1), [queue] as [max_pending] (default
    4× the domains), [cache_mb] MiB of memory cache, and [tier], when
    given, as the cache directory preloaded into memory before serving. *)
