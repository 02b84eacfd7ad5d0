(** The request lifecycle of one [ee_synthd] shard, apart from its sockets
    ({!Server} owns those and the select loop).

    Each complete request line becomes one entry on its connection's
    queue: answered at once (a parse error, [shutting_down], an inline
    command — [stats], [health], [ping], [shutdown] — or a cache hit),
    rejected by the graded admission ladder, or admitted with a result
    slot and a deadline.  A queue answers strictly in order through one
    completion step, which is also the one place an admission is released.
    Every side effect goes through {!ops}, so a test can drive the
    lifecycle on a fake clock and a scripted pool. *)

type slot = (Ee_export.Json.t * bool, string * string) result option Atomic.t
(** Filled by the pool: the result and whether the cache served it, or an
    error code and message. *)

type outcome = [ `Ok | `Error of string ]

type entry

type 'c ops = {
  now : unit -> float;
  inline : Protocol.request -> Ee_export.Json.t;  (** The result of an inline command. *)
  cached : Protocol.request -> string option;  (** A cached payload, answered at once. *)
  submit : (Protocol.request * slot) array -> unit;  (** One batch's admitted requests. *)
  send : 'c -> string -> bool;  (** Write a reply line; [false] once the connection is closed. *)
  tier : string -> unit;  (** Count an admission tier. *)
  retry_after : inflight:int -> float;  (** The [retry_after_s] hint of a rejection. *)
  record : cmd:string -> outcome:outcome -> lat_ms:float -> unit;  (** An answered request. *)
}

type 'c t = {
  ops : 'c ops;
  max_pending : int;
  throttle : int;
  shed : int;  (** The watermarks of {!Server.tier_thresholds}. *)
  default_deadline_s : float option;
  stop : bool Atomic.t;  (** Once set, new requests are answered [shutting_down]. *)
  inflight : int Atomic.t;  (** Submitted requests not yet computed, over all shards. *)
  depth : int Atomic.t;  (** Admitted entries on this shard's queues. *)
}

val batch : 'c t -> entry Queue.t -> string list -> unit
(** Classify the lines of one read onto a queue and submit the admitted
    ones.  With [i] requests in flight plus those admitted earlier in the
    batch, [i >= max_pending] is [overloaded]; otherwise cacheable work is
    admitted, and other work is [shed] from [shed] and [throttled] from
    [throttle]. *)

val pump : 'c t -> 'c -> entry Queue.t -> unit
(** Answer heads while they can be: a ready reply, a filled slot or a
    passed deadline ([deadline_exceeded]). *)

val flush : 'c t -> 'c -> entry Queue.t -> unit
(** {!pump} at the end of a shutdown's grace: every admitted entry is
    answered [shutting_down]. *)

val drop : 'c t -> entry Queue.t -> unit
(** Empty a closed connection's queue. *)

val deadline : entry Queue.t -> float option
(** The deadline of a head that waits for its slot. *)
