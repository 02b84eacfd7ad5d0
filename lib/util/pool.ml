type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

(* A queued closure has already been specialized to write into its own
   task cell, so the queue itself is monomorphic. *)
type t = {
  q_mutex : Mutex.t;
  q_cond : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable closing : bool;
  mutable workers : unit Domain.t array;  (* empty in inline mode *)
  domains : int;
  caller_helps : bool;  (* the caller is one of [domains] *)
}

type 'a task = {
  t_mutex : Mutex.t;
  t_cond : Condition.t;
  mutable t_state : 'a state;
  t_pool : t;
}

let size pool = pool.domains

let worker pool () =
  let rec loop () =
    Mutex.lock pool.q_mutex;
    while Queue.is_empty pool.queue && not pool.closing do
      Condition.wait pool.q_cond pool.q_mutex
    done;
    match Queue.take_opt pool.queue with
    | Some job ->
        Mutex.unlock pool.q_mutex;
        job ();
        loop ()
    | None ->
        (* closing and drained *)
        Mutex.unlock pool.q_mutex
  in
  loop ()

let create ?(force_spawn = false) ?domains () =
  let domains =
    match domains with
    | Some d -> max 1 (min 64 d)
    | None -> max 1 (min 64 (Domain.recommended_domain_count ()))
  in
  let pool =
    {
      q_mutex = Mutex.create ();
      q_cond = Condition.create ();
      queue = Queue.create ();
      closing = false;
      workers = [||];
      domains;
      caller_helps = not force_spawn;
    }
  in
  let spawned = if force_spawn then domains else domains - 1 in
  pool.workers <- Array.init spawned (fun _ -> Domain.spawn (worker pool));
  pool

let inline_mode pool = Array.length pool.workers = 0

(* Run one queued job on the calling domain; false when there is none. *)
let run_queued pool =
  Mutex.lock pool.q_mutex;
  let job = Queue.take_opt pool.queue in
  Mutex.unlock pool.q_mutex;
  match job with
  | Some job ->
      job ();
      true
  | None -> false

let fresh_task pool =
  { t_mutex = Mutex.create (); t_cond = Condition.create (); t_state = Pending; t_pool = pool }

let complete task outcome =
  Mutex.lock task.t_mutex;
  task.t_state <- outcome;
  Condition.broadcast task.t_cond;
  Mutex.unlock task.t_mutex

let run_into task f =
  let outcome =
    match f () with
    | v -> Done v
    | exception e -> Failed (e, Printexc.get_raw_backtrace ())
  in
  complete task outcome

let submit pool f =
  let task = fresh_task pool in
  if inline_mode pool then begin
    if pool.closing then invalid_arg "Pool.submit: pool is shut down";
    run_into task f
  end
  else begin
    Mutex.lock pool.q_mutex;
    if pool.closing then begin
      Mutex.unlock pool.q_mutex;
      invalid_arg "Pool.submit: pool is shut down"
    end;
    Queue.add (fun () -> run_into task f) pool.queue;
    Condition.signal pool.q_cond;
    Mutex.unlock pool.q_mutex
  end;
  task

let await task =
  let is_pending () = match task.t_state with Pending -> true | _ -> false in
  (* The caller is one of the pool's domains: it works through the queue
     rather than block while workers run.  The unlocked read is only a
     hint; the locked loop below decides. *)
  let pool = task.t_pool in
  while is_pending () && pool.caller_helps && run_queued pool do
    ()
  done;
  Mutex.lock task.t_mutex;
  while is_pending () do
    Condition.wait task.t_cond task.t_mutex
  done;
  let state = task.t_state in
  Mutex.unlock task.t_mutex;
  match state with
  | Done v -> v
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | Pending -> assert false

let try_await task =
  match await task with
  | v -> Ok v
  | exception e -> Error (e, Printexc.get_raw_backtrace ())

let await_timeout task ~timeout_s =
  if timeout_s < 0. then invalid_arg "Pool.await_timeout: negative timeout";
  let deadline = Unix.gettimeofday () +. timeout_s in
  (* Mutex/Condition have no timed wait in the stdlib, so poll with
     exponential backoff (1ms .. 50ms); completion latency is bounded by
     the backoff cap, not the timeout. *)
  let rec poll sleep =
    Mutex.lock task.t_mutex;
    let state = task.t_state in
    Mutex.unlock task.t_mutex;
    match state with
    | Done v -> Ok v
    | Failed (e, bt) -> Error (`Failed (e, bt))
    | Pending ->
        if Unix.gettimeofday () >= deadline then Error `Timed_out
        else begin
          Unix.sleepf sleep;
          poll (Float.min 0.05 (sleep *. 2.))
        end
  in
  poll 0.001

let shutdown pool =
  if inline_mode pool then pool.closing <- true
  else begin
    Mutex.lock pool.q_mutex;
    let already = pool.closing in
    pool.closing <- true;
    Condition.broadcast pool.q_cond;
    Mutex.unlock pool.q_mutex;
    if not already then Array.iter Domain.join pool.workers
  end

let abandon pool =
  Mutex.lock pool.q_mutex;
  pool.closing <- true;
  Queue.clear pool.queue;
  Condition.broadcast pool.q_cond;
  Mutex.unlock pool.q_mutex

let with_pool ?domains f =
  let pool = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let map pool f xs =
  let tasks = List.map (fun x -> submit pool (fun () -> f x)) xs in
  List.map await tasks

let run ?domains f xs = with_pool ?domains (fun pool -> map pool f xs)
