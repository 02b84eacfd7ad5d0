(* The ee_synthd daemon: a concurrent synthesis service over a Unix or TCP
   socket.  See lib/serve for the protocol and serving model.

   ee_synthd --socket /tmp/ee.sock --jobs 4 --shards 2 --deadline 30
   ee_synthd --tcp 127.0.0.1:7421 --cache-mb 128 --tier /var/tmp/ee-tier *)

open Cmdliner
module Server = Ee_serve.Server

let run socket tcp jobs shards queue backlog deadline cache_mb cache_dir tier quiet =
  let fail m =
    prerr_endline ("ee_synthd: " ^ m);
    exit 2
  in
  if cache_dir <> None && tier <> None then fail "give either --tier or --cache-dir, not both";
  let address =
    match Option.map Server.host_port tcp with
    | None -> `Unix socket
    | Some (Ok host_port) -> `Tcp host_port
    | Some (Error m) -> fail m
  in
  let stop = Atomic.make false in
  let request_stop _ = Atomic.set stop true in
  ignore (Sys.signal Sys.sigint (Sys.Signal_handle request_stop));
  ignore (Sys.signal Sys.sigterm (Sys.Signal_handle request_stop));
  Server.daemon ?jobs ?shards ?queue ?backlog ?deadline ?cache_dir ?tier ~cache_mb ~stop
    ~log:(if quiet then ignore else fun m -> prerr_endline ("ee_synthd: " ^ m))
    address

let socket_t =
  Arg.(
    value
    & opt string "ee_synthd.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path to listen on.")

let tcp_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"Listen on TCP instead of a Unix socket.")

let jobs_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs" ] ~docv:"N" ~doc:"Worker domains (default: the machine's recommended count).")

let shards_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "shards" ] ~docv:"N"
        ~doc:"IO shard domains: independent select loops the acceptor deals connections to (default 1).")

let queue_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "queue" ] ~docv:"N"
        ~doc:"Admission bound: requests in flight before rejecting with 'overloaded' (default 4x jobs).")

let backlog_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "backlog" ] ~docv:"N"
        ~doc:"Listen backlog (default: max 64 queue).")

let deadline_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"S"
        ~doc:"Default per-request deadline in seconds (requests may override with deadline_s).")

let cache_mb_t =
  Arg.(value & opt int 64 & info [ "cache-mb" ] ~docv:"MB" ~doc:"In-memory result cache budget.")

let cache_dir_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR" ~doc:"Persist cache entries to this directory.")

let tier_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "tier" ] ~docv:"DIR"
        ~doc:
          "Shared cross-instance cache tier: like --cache-dir, but existing entries are \
           preloaded at startup.  Safe to share between two daemons on one host.")

let quiet_t = Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress the startup/shutdown log lines.")

let main =
  let doc = "concurrent early-evaluation synthesis service with a content-addressed result cache" in
  Cmd.v
    (Cmd.info "ee_synthd" ~doc)
    Term.(
      const run $ socket_t $ tcp_t $ jobs_t $ shards_t $ queue_t $ backlog_t
      $ deadline_t $ cache_mb_t $ cache_dir_t $ tier_t $ quiet_t)

let () = exit (Cmd.eval main)
