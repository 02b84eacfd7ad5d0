(** Fleet-aware NDJSON client: several endpoints, failover, retry.

    Wraps {!Client} with the availability policy a multi-process fleet
    needs: connect to any of the configured endpoints, fail over to the
    next on connect or IO errors (closed connection, {!Client.Timeout},
    [Unix_error]), and automatically retry the graded back-pressure
    rejections ([throttled]/[shed]/[overloaded]) on the same endpoint —
    honoring the server's [retry_after_s] hint — with capped, jittered
    exponential backoff.  [shutting_down] rejections fail over instead of
    waiting: a draining server will not come back.

    One [t] is single-owner (no internal locking) and holds at most one
    live connection; requests are synchronous.  Responses the policy does
    not recognise as retryable — including structured errors like
    [bad_request] or [deadline_exceeded] — are returned to the caller
    verbatim. *)

type policy = {
  max_attempts : int;  (** Total tries per request, first one included. *)
  base_backoff_s : float;  (** Delay scale of attempt 1. *)
  max_backoff_s : float;  (** Hard cap on any single delay. *)
  jitter : float;
      (** Fraction of the exponential delay randomly shaved off, in
          [0,1]: delay is drawn from [[exp*(1-jitter), exp]]. *)
  connect_retries : int;  (** Passed to {!Client.connect} per endpoint. *)
  recv_timeout_s : float option;  (** Per-response receive timeout. *)
}

val default_policy : policy
(** 5 attempts, 50 ms base doubling to a 2 s cap, 25 % jitter, 1 connect
    retry, 30 s receive timeout. *)

type failure =
  | Rejected of { code : string; attempts : int; line : string }
      (** Every attempt was rejected with a retryable structured error;
          [line] is the {e last} server response verbatim, so the caller
          still sees the structured rejection after the budget runs out. *)
  | Unavailable of { attempts : int; last_error : string }
      (** The last attempt failed below the protocol (connect refused,
          connection closed, receive timeout). *)

exception Failed of failure

val failure_to_string : failure -> string

type t

val create :
  ?policy:policy -> ?seed:int -> ?sleep:(float -> unit) -> Server.address list -> t
(** Lazily connecting handle over the given endpoints (tried round-robin
    starting from the first).  [seed] fixes the jitter RNG and [sleep]
    replaces [Unix.sleepf] — both for deterministic tests.  Raises
    [Invalid_argument] on an empty endpoint list. *)

val backoff_delay : policy -> attempt:int -> hint:float option -> u:float -> float
(** The pure delay schedule: [attempt] is 1-based, [u] the uniform [0,1)
    jitter draw.  Exponential ([base*2^(attempt-1)]) capped at
    [max_backoff_s], jittered downward by up to [jitter*100]%; a positive
    server [hint] acts as a floor (still capped).  Exposed for tests. *)

val request_line : t -> string -> string
(** Send one raw request line, applying the retry/failover policy, and
    return the first response the policy does not consume.  Raises
    {!Failed} when the attempt budget is exhausted. *)

val close : t -> unit
(** Close the current connection, if any.  The handle stays usable — the
    next request reconnects. *)
