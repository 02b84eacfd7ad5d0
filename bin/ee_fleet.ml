(* ee_fleet: supervise N ee_synthd-style server processes over one shared
   cache tier.  See Ee_serve.Supervisor for the state machine.

   ee_fleet -n 2 --tier /var/tmp/ee-tier
   ee_fleet -n 3 --tcp 127.0.0.1:7421 --jobs 2 --grace 10

   Children listen on PREFIX.0, PREFIX.1, ... (Unix sockets) or on
   PORT, PORT+1, ... (TCP).  SIGTERM/SIGINT to the supervisor drains the
   whole fleet: children get SIGTERM, [--grace] seconds to flush, then
   SIGKILL. *)

open Cmdliner
module Server = Ee_serve.Server
module Client = Ee_serve.Client
module Supervisor = Ee_serve.Supervisor
module Json = Ee_export.Json

let address_of_slot ~socket_prefix ~tcp slot =
  match tcp with
  | None -> `Unix (Printf.sprintf "%s.%d" socket_prefix slot)
  | Some (host, port) -> `Tcp (host, port + slot)

let probe_timeout_s = 2.0

(* A health round-trip on a fresh connection: only a live event loop can
   answer, which is the liveness we care about. *)
let probe addr =
  match Client.connect ~recv_timeout_s:probe_timeout_s addr with
  | exception _ -> false
  | c ->
      let healthy =
        match Json.parse (Client.request_line c {|{"cmd":"health"}|}) with
        | Ok j -> Json.member "status" j = Some (Json.String "ok")
        | Error _ | exception _ -> false
      in
      Client.close c;
      healthy

let run n socket_prefix tcp jobs shards queue deadline cache_mb tier probe_interval
    probe_misses backoff_base backoff_cap stable grace quiet =
  match
    Option.fold ~none:(Ok None) ~some:(fun s -> Result.map Option.some (Server.host_port s)) tcp
  with
  | Error m ->
      prerr_endline ("ee_fleet: " ^ m);
      exit 2
  | Ok tcp ->
      let n = max 1 n in
      let log = if quiet then ignore else fun m -> prerr_endline ("ee_fleet: " ^ m) in
      (* Runs in the forked child; never returns.  The child ignores SIGINT
         (a terminal Ctrl-C reaches the whole process group — the
         supervisor turns it into an orderly SIGTERM drain) and treats
         SIGTERM as graceful stop, exactly like a standalone ee_synthd. *)
      let child_main slot =
        let stop = Atomic.make false in
        ignore (Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set stop true)));
        ignore (Sys.signal Sys.sigint Sys.Signal_ignore);
        Server.daemon ?jobs ?shards ?queue ?deadline ?tier ~cache_mb ~stop
          ~log:
            (if quiet then ignore
             else fun m -> prerr_endline (Printf.sprintf "ee_synthd[%d]: %s" slot m))
          (address_of_slot ~socket_prefix ~tcp slot);
        exit 0
      in
      let stop = Atomic.make false in
      let request_stop _ = Atomic.set stop true in
      ignore (Sys.signal Sys.sigint (Sys.Signal_handle request_stop));
      ignore (Sys.signal Sys.sigterm (Sys.Signal_handle request_stop));
      let ops =
        {
          Supervisor.spawn =
            (fun slot ->
              (* The supervisor never spawns domains itself, so forking
                 here is safe; the child brings up its own domains. *)
              match Unix.fork () with
              | 0 -> (
                  try child_main slot
                  with e ->
                    prerr_endline
                      (Printf.sprintf "ee_fleet: child %d died at startup: %s" slot
                         (Printexc.to_string e));
                    exit 1)
              | pid -> pid);
          kill =
            (fun ~pid ~signal ->
              try Unix.kill pid signal with Unix.Unix_error _ -> ());
          reap =
            (fun () ->
              match Unix.waitpid [ Unix.WNOHANG ] (-1) with
              | 0, _ -> None
              | pid, status -> Some (pid, status)
              | exception Unix.Unix_error ((Unix.ECHILD | Unix.EINTR), _, _) -> None);
          probe = (fun slot -> probe (address_of_slot ~socket_prefix ~tcp slot));
          now = Unix.gettimeofday;
          sleep =
            (fun s ->
              try Unix.sleepf s with Unix.Unix_error (Unix.EINTR, _, _) -> ());
          log;
        }
      in
      let sup_cfg =
        {
          Supervisor.children = n;
          tick_s = 0.2;
          probe_interval_s = probe_interval;
          probe_misses;
          backoff_base_s = backoff_base;
          backoff_cap_s = backoff_cap;
          stable_s = stable;
          grace_s = grace;
        }
      in
      log
        (Printf.sprintf "supervising %d children on %s" n
           (String.concat ", "
              (List.init n (fun slot ->
                   match address_of_slot ~socket_prefix ~tcp slot with
                   | `Unix p -> "unix:" ^ p
                   | `Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p))));
      let stats = Supervisor.run sup_cfg ops ~stop in
      log
        (Printf.sprintf "stopped (%d spawns, %d restarts, %d wedge kills)"
           stats.Supervisor.spawns stats.Supervisor.restarts
           stats.Supervisor.wedge_kills)

let n_t =
  Arg.(value & opt int 2 & info [ "n"; "children" ] ~docv:"N" ~doc:"Fleet size.")

let socket_prefix_t =
  Arg.(
    value
    & opt string "ee_fleet.sock"
    & info [ "socket" ] ~docv:"PREFIX"
        ~doc:"Unix-socket path prefix; child $(i,i) listens on PREFIX.$(i,i).")

let tcp_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:PORT"
        ~doc:"Listen on TCP instead; child $(i,i) listens on PORT+$(i,i).")

let jobs_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs" ] ~docv:"N" ~doc:"Worker domains per child.")

let shards_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "shards" ] ~docv:"N" ~doc:"IO shard domains per child.")

let queue_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "queue" ] ~docv:"N" ~doc:"Per-child admission bound (default 4x jobs).")

let deadline_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"S" ~doc:"Default per-request deadline per child.")

let cache_mb_t =
  Arg.(
    value & opt int 64 & info [ "cache-mb" ] ~docv:"MB" ~doc:"Per-child in-memory cache budget.")

let tier_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "tier" ] ~docv:"DIR"
        ~doc:
          "Shared cross-instance cache tier; every child preloads it at startup and \
           persists into it.")

let probe_interval_t =
  Arg.(
    value
    & opt float 1.0
    & info [ "probe-interval" ] ~docv:"S" ~doc:"Seconds between liveness probes.")

let probe_misses_t =
  Arg.(
    value
    & opt int 3
    & info [ "probe-misses" ] ~docv:"N"
        ~doc:"Consecutive failed probes before a child is declared wedged and killed.")

let backoff_base_t =
  Arg.(
    value
    & opt float 0.5
    & info [ "backoff-base" ] ~docv:"S" ~doc:"First restart delay after a crash.")

let backoff_cap_t =
  Arg.(
    value
    & opt float 30.
    & info [ "backoff-cap" ] ~docv:"S" ~doc:"Maximum restart delay.")

let stable_t =
  Arg.(
    value
    & opt float 10.
    & info [ "stable" ] ~docv:"S"
        ~doc:"Uptime after which a child's crash streak (and so its backoff) resets.")

let grace_t =
  Arg.(
    value
    & opt float 5.
    & info [ "grace" ] ~docv:"S" ~doc:"SIGTERM-to-SIGKILL budget when draining.")

let quiet_t = Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress supervisor log lines.")

let main =
  let doc = "supervised multi-process early-evaluation synthesis fleet" in
  Cmd.v
    (Cmd.info "ee_fleet" ~doc)
    Term.(
      const run $ n_t $ socket_prefix_t $ tcp_t $ jobs_t $ shards_t $ queue_t
      $ deadline_t $ cache_mb_t $ tier_t $ probe_interval_t $ probe_misses_t
      $ backoff_base_t $ backoff_cap_t $ stable_t $ grace_t $ quiet_t)

let () = exit (Cmd.eval main)
