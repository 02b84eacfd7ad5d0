module Json = Ee_export.Json

type slot = (Json.t * bool, string * string) result option Atomic.t

type outcome = [ `Ok | `Error of string ]

type entry =
  | Ready of { line : string; cmd : string; outcome : outcome; t0 : float }
  | Running of {
      slot : slot;
      cmd : string;
      id : Json.t;
      t0 : float;
      deadline : float option;  (* absolute *)
    }

type 'c ops = {
  now : unit -> float;
  inline : Protocol.request -> Json.t;
  cached : Protocol.request -> string option;
  submit : (Protocol.request * slot) array -> unit;
  send : 'c -> string -> bool;
  tier : string -> unit;
  retry_after : inflight:int -> float;
  record : cmd:string -> outcome:outcome -> lat_ms:float -> unit;
}

type 'c t = {
  ops : 'c ops;
  max_pending : int;
  throttle : int;
  shed : int;
  default_deadline_s : float option;
  stop : bool Atomic.t;
  inflight : int Atomic.t;
  depth : int Atomic.t;
}

(* Cacheable work is never throttled or shed below the hard bound:
   rejecting it forfeits a cache fill that would absorb the repeat traffic
   causing the load. *)
let cacheable = function
  | Protocol.(Synth _ | Import _ | Perf _ | Faults _) -> true
  | Protocol.(Sleep _ | Stats | Health | Ping | Shutdown) -> false

let ms t t0 = (t.ops.now () -. t0) *. 1000.

let ready ~t0 ~cmd outcome line = Ready { line; cmd; outcome; t0 }

let answered t ~t0 ~id ~cmd ~cached result =
  ready ~t0 ~cmd `Ok (Protocol.ok_response ~id ~cmd ~cached ~elapsed_ms:(ms t t0) result)

(* The graded ladder.  [admits] holds the lines admitted earlier in this
   same batch, whose requests are not yet submitted: without them a
   pipelined batch would be classified against a stale in-flight count. *)
let admit t ~admits ~t0 ~id ~cmd ~deadline_s req =
  let eff = Atomic.get t.inflight + Queue.length admits in
  let reject tier detail =
    t.ops.tier tier;
    let retry_after_s = t.ops.retry_after ~inflight:eff in
    ready ~t0 ~cmd (`Error tier) (Protocol.error_response ~retry_after_s ~id ~cmd ~code:tier detail)
  in
  if eff >= t.max_pending then
    reject "overloaded" (Printf.sprintf "admission queue full (%d in flight)" t.max_pending)
  else if (not (cacheable req)) && eff >= t.shed then
    reject "shed"
      (Printf.sprintf
         "load shedding non-cacheable work (%d in flight >= shed watermark %d)" eff t.shed)
  else if (not (cacheable req)) && eff >= t.throttle then
    reject "throttled"
      (Printf.sprintf "past throttle watermark (%d in flight >= %d); retry after the hint" eff
         t.throttle)
  else begin
    t.ops.tier "ok";
    let deadline = if deadline_s = None then t.default_deadline_s else deadline_s in
    let slot = Atomic.make None in
    Queue.add (req, slot) admits;
    Running { slot; cmd; id; t0; deadline = Option.map (( +. ) t0) deadline }
  end

let classify t ~admits line =
  let t0 = t.ops.now () in
  match Protocol.parse_line line with
  | Error msg ->
      let cmd, id = Protocol.rejected_echo line in
      ready ~t0 ~cmd (`Error "bad_request")
        (Protocol.error_response ~id ~cmd ~code:"bad_request" msg)
  | Ok { Protocol.id; deadline_s; req } -> (
      let cmd = Protocol.cmd_name req in
      if Atomic.get t.stop then
        ready ~t0 ~cmd (`Error "shutting_down")
          (Protocol.error_response ~id ~cmd ~code:"shutting_down" "server is shutting down")
      else
        match req with
        | Protocol.(Stats | Health | Ping | Shutdown) ->
            answered t ~t0 ~id ~cmd ~cached:false (t.ops.inline req)
        | _ -> (
            match t.ops.cached req with
            | Some payload -> answered t ~t0 ~id ~cmd ~cached:true (Json.Raw payload)
            | None -> admit t ~admits ~t0 ~id ~cmd ~deadline_s req))

let batch t q lines =
  let admits = Queue.create () in
  List.iter (fun line -> Queue.add (classify t ~admits line) q) lines;
  ignore (Atomic.fetch_and_add t.depth (Queue.length admits));
  t.ops.submit (Array.of_seq (Queue.to_seq admits))

(* Every admission is released here, when its entry leaves the queue. *)
let pop t q = match Queue.pop q with Running _ -> Atomic.decr t.depth | Ready _ -> ()

let drop t q = while not (Queue.is_empty q) do pop t q done

(* The one completion step: pop the head, release its admission, answer it
   and record its latency.  [false] once the connection is closed. *)
let finish t c q ~cmd ~t0 outcome line =
  pop t q;
  let open_ = t.ops.send c line in
  t.ops.record ~cmd ~outcome ~lat_ms:(ms t t0);
  open_

(* Answer the head if it can be answered now: its ready line, its
   filled slot, its passed deadline, or [shutting_down] in a [flush].
   [false] when it must wait or the connection is closed. *)
let step t ~flush c q = function
  | Ready { line; cmd; outcome; t0 } -> finish t c q ~cmd ~t0 outcome line
  | Running { slot; cmd; id; t0; deadline } -> (
      let error code msg =
        finish t c q ~cmd ~t0 (`Error code) (Protocol.error_response ~id ~cmd ~code msg)
      in
      match Atomic.get slot with
      | _ when flush -> error "shutting_down" "server stopped before the computation finished"
      | Some (Ok (payload, cached)) ->
          finish t c q ~cmd ~t0 `Ok
            (Protocol.ok_response ~id ~cmd ~cached ~elapsed_ms:(ms t t0) payload)
      | Some (Error (code, msg)) -> error code msg
      | None -> (
          match deadline with
          | Some d when t.ops.now () >= d ->
              error "deadline_exceeded"
                (Printf.sprintf
                   "no result within %.3fs; the computation continues and will warm the cache"
                   (d -. t0))
          | _ -> false))

let rec answer t ~flush c q =
  if (not (Queue.is_empty q)) && step t ~flush c q (Queue.peek q) then answer t ~flush c q

let pump t c q = answer t ~flush:false c q

let flush t c q = answer t ~flush:true c q

let deadline q =
  match Queue.peek_opt q with Some (Running { deadline; _ }) -> deadline | _ -> None
