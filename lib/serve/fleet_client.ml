module Json = Ee_export.Json

type policy = {
  max_attempts : int;
  base_backoff_s : float;
  max_backoff_s : float;
  jitter : float;
  connect_retries : int;
  recv_timeout_s : float option;
}

let default_policy =
  {
    max_attempts = 5;
    base_backoff_s = 0.05;
    max_backoff_s = 2.0;
    jitter = 0.25;
    connect_retries = 1;
    recv_timeout_s = Some 30.;
  }

type failure =
  | Rejected of { code : string; attempts : int; line : string }
  | Unavailable of { attempts : int; last_error : string }

exception Failed of failure

let failure_to_string = function
  | Rejected { code; attempts; _ } ->
      Printf.sprintf "rejected with %S after %d attempts" code attempts
  | Unavailable { attempts; last_error } ->
      Printf.sprintf "no endpoint reachable after %d attempts (last: %s)" attempts
        last_error

let () =
  Printexc.register_printer (function
    | Failed f -> Some (Printf.sprintf "Fleet_client.Failed (%s)" (failure_to_string f))
    | _ -> None)

type t = {
  endpoints : Server.address array;
  policy : policy;
  rng : Random.State.t;
  sleep : float -> unit;
  mutable cur : int;  (* index of the endpoint [conn] points at (or should) *)
  mutable conn : Client.t option;
}

let create ?(policy = default_policy) ?seed ?sleep endpoints =
  if endpoints = [] then invalid_arg "Fleet_client.create: no endpoints";
  if policy.max_attempts < 1 then invalid_arg "Fleet_client.create: max_attempts < 1";
  let rng =
    match seed with
    | Some s -> Random.State.make [| s |]
    | None -> Random.State.make_self_init ()
  in
  {
    endpoints = Array.of_list endpoints;
    policy;
    rng;
    sleep = Option.value sleep ~default:Unix.sleepf;
    cur = 0;
    conn = None;
  }

(* Pure so the jitter bounds and hint handling are unit-testable: [u] is
   the uniform [0,1) draw.  Exponential in [attempt] (1-based), capped,
   jittered downward (never above the cap), and never below the server's
   [retry_after_s] hint — the server knows its backlog better than our
   schedule does. *)
let backoff_delay policy ~attempt ~hint ~u =
  let exp =
    Float.min policy.max_backoff_s
      (policy.base_backoff_s *. Float.pow 2. (float_of_int (max 0 (attempt - 1))))
  in
  let jittered = exp *. (1. -. (policy.jitter *. u)) in
  match hint with
  | Some h when h > 0. -> Float.min policy.max_backoff_s (Float.max h jittered)
  | _ -> jittered

let close t =
  (match t.conn with Some c -> Client.close c | None -> ());
  t.conn <- None

(* Drop the connection and point at the next endpoint. *)
let failover t =
  close t;
  t.cur <- (t.cur + 1) mod Array.length t.endpoints

let ensure_conn t =
  match t.conn with
  | Some c -> Ok c
  | None ->
      let n = Array.length t.endpoints in
      let rec try_from k last_err =
        if k >= n then Error last_err
        else
          let addr = t.endpoints.(t.cur) in
          match
            Client.connect ~retries:t.policy.connect_retries
              ?recv_timeout_s:t.policy.recv_timeout_s addr
          with
          | c ->
              t.conn <- Some c;
              Ok c
          | exception Unix.Unix_error (e, _, _) ->
              t.cur <- (t.cur + 1) mod n;
              try_from (k + 1) (Unix.error_message e)
      in
      try_from 0 "unreachable"

(* Structured-rejection triage: [`Retry] waits out the hint on the same
   endpoint (capacity frees up there), [`Failover] moves on (a draining
   server will not come back), [`Done] is the caller's problem. *)
let triage line =
  match Json.parse line with
  | Error _ -> `Done
  | Ok j -> (
      match Json.member "status" j with
      | Some (Json.String "error") -> (
          let hint = Option.bind (Json.member "retry_after_s" j) Json.to_float in
          match Json.member "error" j with
          | Some (Json.String (("throttled" | "shed" | "overloaded") as code)) ->
              `Retry (code, hint)
          | Some (Json.String "shutting_down") -> `Failover ("shutting_down", hint)
          | _ -> `Done)
      | _ -> `Done)

let request_line t line =
  let p = t.policy in
  let rec attempt n last =
    if n > p.max_attempts then
      raise
        (Failed
           (match last with
           | `Rejected (code, resp) ->
               Rejected { code; attempts = p.max_attempts; line = resp }
           | `Io msg -> Unavailable { attempts = p.max_attempts; last_error = msg }))
    else
      let backoff ?hint () =
        if n < p.max_attempts then
          t.sleep
            (backoff_delay p ~attempt:n ~hint ~u:(Random.State.float t.rng 1.))
      in
      match ensure_conn t with
      | Error msg ->
          backoff ();
          attempt (n + 1) (`Io msg)
      | Ok c -> (
          match Client.request_line c line with
          | resp -> (
              match triage resp with
              | `Done -> resp
              | `Retry (code, hint) ->
                  backoff ?hint ();
                  attempt (n + 1) (`Rejected (code, resp))
              | `Failover (code, hint) ->
                  failover t;
                  backoff ?hint ();
                  attempt (n + 1) (`Rejected (code, resp)))
          | exception End_of_file ->
              failover t;
              backoff ();
              attempt (n + 1) (`Io "connection closed by server")
          | exception Client.Timeout ->
              failover t;
              backoff ();
              attempt (n + 1) (`Io "receive timeout")
          | exception Unix.Unix_error (e, _, _) ->
              failover t;
              backoff ();
              attempt (n + 1) (`Io (Unix.error_message e)))
  in
  attempt 1 (`Io "not attempted")
