(** A small fixed-size work pool of OCaml 5 [Domain]s.

    Tasks are closures submitted to a shared queue, and [domains] domains
    drain it: [domains - 1] spawned workers and the caller, which runs
    queued tasks while it waits in {!await} or {!try_await}.  Results come
    back through {!await}, which re-raises (with the original backtrace)
    any exception the task raised, so error behaviour is identical to
    calling the closure inline.

    With [~domains:1] no domain is spawned at all: tasks run inline at
    {!submit} time, in submission order, on the calling domain.  This is
    the deterministic fallback used by the test-suite and by callers that
    must not perturb global state concurrently.

    {!map} preserves input ordering regardless of the completion order of
    the workers, so parallel runs are result-identical to sequential ones
    whenever the tasks themselves are pure.

    Every task pays one queue round-trip and one task cell, so the pool
    suits batches of few, expensive elements, such as the rows of a
    benchmark suite: one task per element keeps each element's failure
    ({!try_await}) and deadline ({!await_timeout}) its own, and lets a
    free domain take the next element whatever the others cost. *)

type t
(** A pool handle.  Use one pool per batch of related work and
    {!shutdown} it (or use {!with_pool}) when done. *)

type 'a task
(** An in-flight (or inline-completed) task. *)

val create : ?force_spawn:bool -> ?domains:int -> unit -> t
(** [create ~domains ()] spawns [domains - 1] worker domains; the caller
    is the last of the [domains], running queued tasks while it awaits
    one.  A caller blocked instead would still take part in every
    stop-the-world collection the workers trigger: on a 2-core machine,
    two workers beside a blocked caller ran a suite slower than one
    worker beside a working caller.  With [domains = 1] nothing is
    spawned (inline mode).  [domains] defaults to
    {!Domain.recommended_domain_count}[ ()] and is clamped to [1 .. 64].

    [~force_spawn:true] spawns [domains] workers, even for [domains = 1],
    and never runs a task on the calling domain.  Required when the
    caller wants {!await_timeout} to be able to give up on a hung task
    (in inline mode the task runs, and hangs, inside {!submit} itself),
    or when the caller submits and never awaits. *)

val size : t -> int
(** The [domains] value the pool was created with (after clamping). *)

val submit : t -> (unit -> 'a) -> 'a task
(** Enqueue a closure.  Raises [Invalid_argument] after {!shutdown}.
    On a [~domains:1] pool the closure runs before [submit] returns. *)

val await : 'a task -> 'a
(** Wait until the task completes; return its value or re-raise its
    exception with the original backtrace.  Unless the pool was created
    with [~force_spawn:true], the caller runs queued tasks (any
    submitter's) while this one is pending, and blocks only once the
    queue is empty. *)

val try_await : 'a task -> ('a, exn * Printexc.raw_backtrace) result
(** Like {!await} but captures a task failure as a value instead of
    re-raising, so one crashing task in a batch cannot unwind the
    caller past its siblings. *)

val await_timeout :
  'a task ->
  timeout_s:float ->
  ('a, [ `Failed of exn * Printexc.raw_backtrace | `Timed_out ]) result
(** Like {!try_await} with a per-task deadline: [Error `Timed_out] once
    [timeout_s] seconds elapse with the task still pending.  The task
    itself is {e not} cancelled — OCaml domains cannot be killed — so a
    timed-out task may still be burning a worker; see {!abandon}.
    Polls (OCaml's [Condition] has no timed wait), so resolution is
    ~50 ms; never runs other tasks on the caller, which could overrun the
    deadline.  Raises [Invalid_argument] on a negative timeout. *)

val shutdown : t -> unit
(** Wait for queued tasks to finish and join the worker domains.
    Idempotent. *)

val abandon : t -> unit
(** Emergency shutdown for a pool with hung workers: drop all queued
    tasks, refuse new submissions, wake idle workers so they exit — and
    do {e not} join, because a worker stuck in a non-terminating task
    would block the join forever.  Hung worker domains leak until
    process exit; pending tasks never complete (an {!await} on one
    would hang — use {!await_timeout}).  Use {!shutdown} whenever every
    task is known to terminate. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool f] creates a pool, applies [f], and shuts the pool down
    even if [f] raises. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map] with deterministic (input-order) results, one
    task per element; the earliest failing element's exception is
    re-raised.  Submit the elements yourself when each needs its own
    {!try_await} or {!await_timeout}. *)

val run : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** One-shot convenience: [with_pool (fun p -> map p f xs)]. *)
