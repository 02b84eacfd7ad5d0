module Json = Ee_export.Json
module Blif = Ee_export.Blif
module Cache = Ee_cache.Cache
module Pool = Ee_util.Pool
module Stats = Ee_util.Stats
module Engine = Ee_engine.Engine
module Pipeline = Ee_report.Pipeline
module Tables = Ee_report.Tables
module Itc99 = Ee_bench_circuits.Itc99

type address = [ `Unix of string | `Tcp of string * int ]

type config = {
  address : address;
  shards : int;
  domains : int;
  max_pending : int;
  backlog : int option;
  default_deadline_s : float option;
  cache_max_bytes : int;
  cache_dir : string option;
  shutdown_grace_s : float;
  log : string -> unit;
}

(* A configuration from the daemon command-line values, each defaulted
   when absent. *)
let make_config ?jobs ?(shards = 1) ?queue ?backlog ?deadline ?cache_dir ?(cache_mb = 64)
    ?(log = ignore) address =
  let domains = match jobs with Some j -> max 1 j | None -> Domain.recommended_domain_count () in
  {
    address;
    shards;
    domains;
    max_pending = (match queue with Some q -> max 1 q | None -> 4 * domains);
    backlog;
    default_deadline_s = deadline;
    cache_max_bytes = cache_mb * 1024 * 1024;
    cache_dir;
    shutdown_grace_s = 5.;
    log;
  }

let default_config = make_config (`Unix "ee_synthd.sock")

(* Watermarks of the graded admission ladder: half and three quarters of
   [max_pending], with 1 <= throttle <= shed. *)
let tier_thresholds cfg =
  let throttle = max 1 (cfg.max_pending / 2) in
  (throttle, max throttle (3 * cfg.max_pending / 4))

(* A connection whose unfinished line grows past this is answered
   [bad_request] and closed. *)
let max_request_bytes = 8 * 1024 * 1024

let backlog_of cfg =
  match cfg.backlog with Some b -> max 1 b | None -> max 64 cfg.max_pending

let cache_of_config cfg =
  Cache.create ~max_bytes:cfg.cache_max_bytes ?persist_dir:cfg.cache_dir ()

(* -------------------------------------------------------------------- *)
(* Request computation (runs on pool worker domains)                    *)
(* -------------------------------------------------------------------- *)

(* A structured rejection: becomes an {"error": code} response instead of
   "internal". *)
exception Reject of string * string

(* Canonical BLIF text per benchmark id, so repeated requests skip the
   RTL-elaboration + export needed to form the content-addressed key.
   [Memo.Shared] computes outside its lock: worker domains may race on
   the same id, both compute the identical string, first store wins. *)
let bench_blif_memo : (string, string) Ee_util.Memo.Shared.t =
  Ee_util.Memo.Shared.create ~size:16 ()

let canonical_bench_blif (b : Itc99.benchmark) =
  Ee_util.Memo.Shared.find_or_add bench_blif_memo b.Itc99.id (fun () ->
      let nl = Ee_rtl.Techmap.run_rtl (b.Itc99.build ()) in
      Blif.to_blif ~model:b.Itc99.id nl)

let find_bench id =
  match Engine.find_benchmark id with
  | Ok b -> b
  | Error msg -> raise (Reject ("not_found", msg))

let row_json (row : Tables.row) (rep : Ee_core.Synth.report) (spec : Engine.spec) =
  Json.Obj
    [
      ("id", Json.String row.Tables.id);
      ("description", Json.String row.Tables.description);
      ("pl_gates", Json.Int row.Tables.pl_gates);
      ("ee_gates", Json.Int row.Tables.ee_gates);
      ("eligible_gates", Json.Int rep.Ee_core.Synth.eligible_gates);
      ("delay_no_ee", Json.Float row.Tables.delay_no_ee);
      ("delay_ee", Json.Float row.Tables.delay_ee);
      ("delay_diff", Json.Float row.Tables.delay_diff);
      ("area_increase_percent", Json.Float row.Tables.area_increase);
      ("delay_decrease_percent", Json.Float row.Tables.delay_decrease);
      ("critical_cycle", Json.String row.Tables.critical_cycle);
      ("selection", Json.String (Engine.selection_to_string spec.Engine.selection));
      ("vectors", Json.Int spec.Engine.vectors);
      ("seed", Json.Int spec.Engine.seed);
    ]

(* The search section: the shared-trigger λ table plus a wide-LUT cone
   summary, appended to a synth row when the request sets "search".  The
   netlist cell stays a LUT4 — [wide_covers] only reports which LUT-k cone
   functions a wide cell would realize at [spec.lut_k], and
   [Trigger.extract] their best trigger. *)
let search_json ~spec nl =
  let pl = Ee_phased.Pl.of_netlist nl in
  let pl', r = Ee_search.Search_select.run ~options:(Engine.search_options spec) pl in
  ignore pl';
  let groups =
    List.map
      (fun (g : Ee_search.Search_select.shared_group) ->
        Json.Obj
          [
            ("signals", Json.List (List.map (fun i -> Json.Int i) g.Ee_search.Search_select.sg_signals));
            ("masters", Json.List (List.map (fun i -> Json.Int i) g.Ee_search.Search_select.sg_masters));
            ("coverage_percent", Json.Float g.Ee_search.Search_select.sg_coverage);
          ])
      r.Ee_search.Search_select.shared_groups
  in
  let covers =
    Ee_rtl.Cutmap.wide_covers ~lut_k:spec.Engine.lut_k (Ee_frontend.Remap.to_gates nl)
  in
  let wide =
    List.filter (fun w -> List.length w.Ee_rtl.Cutmap.wleaves > 4) covers
  in
  (* Bound the per-request analysis cost on big netlists; the bench has the
     uncapped sweep. *)
  let analyzed = List.filteri (fun i _ -> i < 64) wide in
  let best_coverages =
    List.map
      (fun w ->
        match Ee_core.Trigger.extract ~top_k:1 w.Ee_rtl.Cutmap.wfunc with
        | c :: _ -> c.Ee_core.Trigger.coverage
        | [] -> 0.)
      analyzed
  in
  let mean xs =
    match xs with
    | [] -> 0.
    | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
  in
  Json.Obj
    [
      ("lambda_no_ee", Json.Float r.Ee_search.Search_select.lambda_no_ee);
      ("lambda_mcr", Json.Float r.Ee_search.Search_select.lambda_mcr);
      ("lambda_search", Json.Float r.Ee_search.Search_select.lambda);
      ("trials", Json.Int r.Ee_search.Search_select.trials);
      ("fell_back", Json.Bool r.Ee_search.Search_select.fell_back);
      ("shared_groups", Json.List groups);
      ( "wide",
        Json.Obj
          [
            ("lut_k", Json.Int spec.Engine.lut_k);
            ("covers", Json.Int (List.length covers));
            ("wider_than_4", Json.Int (List.length wide));
            ("analyzed", Json.Int (List.length analyzed));
            ("mean_best_coverage_percent", Json.Float (mean best_coverages));
          ] );
    ]

let with_search ~spec ~search nl = function
  | Json.Obj fields when search -> Json.Obj (fields @ [ ("search", search_json ~spec nl) ])
  | j -> j

let synth_bench_json ~spec ~search b =
  let r = Engine.run ~spec b in
  let a = r.Engine.artifact in
  with_search ~spec ~search a.Pipeline.netlist (row_json r.Engine.row a.Pipeline.synth_report spec)

(* The user-netlist path of [import]: the plan and row of a benchmark run,
   starting from the parsed netlist. *)
let synth_netlist_json ~search ~spec nl =
  let pl = Ee_phased.Pl.of_netlist nl in
  let pl_ee, report = Engine.plan spec pl in
  let row =
    Tables.row ~vectors:spec.Engine.vectors ~seed:spec.Engine.seed
      ~config:(Engine.sim_config spec) ~id:"netlist" ~description:"inline BLIF netlist" report
      pl pl_ee
  in
  with_search ~spec ~search nl (row_json row report spec)

let perf_json ~spec ~waves b =
  let r =
    Ee_report.Perf_report.analyze_bench ~config:(Engine.sim_config spec) ~waves
      ~seed:spec.Engine.seed (Engine.build spec b)
  in
  Json.raw_compact
    (Ee_report.Perf_report.to_json { Ee_report.Perf_report.rows = [ r ]; selection = [] })

let faults_json ~spec ~waves b =
  let a = Engine.build spec b in
  let r =
    Ee_fault.Campaign.run ~waves ~seed:spec.Engine.seed ~bench:a.Pipeline.id
      a.Pipeline.pl_ee a.Pipeline.netlist
  in
  Json.raw_compact (Ee_fault.Campaign.to_json r)

(* The import path: arbitrary-netlist frontend (full BLIF / AIGER) ->
   optional delay-driven remap -> the same measurements as [synth], plus
   the imported and mapped netlist shapes. *)
let import_json ~spec ~remap ~search ~format nl =
  let module F = Ee_frontend.Frontend in
  let shape tag netlist =
    let s = F.stats format netlist in
    ( tag,
      Json.Obj
        [
          ("inputs", Json.Int s.F.s_inputs);
          ("outputs", Json.Int s.F.s_outputs);
          ("luts", Json.Int s.F.s_luts);
          ("dffs", Json.Int s.F.s_dffs);
          ("depth", Json.Int s.F.s_depth);
        ] )
  in
  let mapped = if remap then Ee_frontend.Remap.run nl else nl in
  let synth = synth_netlist_json ~search ~spec mapped in
  Json.Obj
    [
      ("format", Json.String (F.format_to_string format));
      ("remapped", Json.Bool remap);
      shape "imported" nl;
      shape "mapped" mapped;
      ("synth", synth);
    ]

let with_cache cache key run =
  match Cache.find cache key with
  | Some payload -> (Json.Raw payload, true)
  | None ->
      let j = run () in
      let payload = Json.to_string j in
      Cache.add cache ~key payload;
      (Json.Raw payload, false)

(* The cache key of every cached request: its command tag, the canonical
   BLIF of its netlist, its spec and its run parameters. *)
let cache_key req ~blif spec extras =
  Cache.key (Protocol.cmd_name req :: blif :: Engine.spec_fingerprint spec :: extras)

let search_extra search = if search then [ "search" ] else []

(* In every [perf] and [faults] key.  Those replies once came from an
   Eq. 1 plan whatever the spec's [selection]; the tag keeps such entries,
   in a persisted tier, from being served. *)
let planned_tag = "planned-by-selection"

(* A benchmark-sourced request: its bench id, spec, cache-key extras and
   computation. *)
let bench_job (req : Protocol.request) =
  match req with
  | Protocol.Synth { bench; spec; search } ->
      Some (bench, spec, search_extra search, synth_bench_json ~spec ~search)
  | Protocol.Perf { bench; spec; waves } ->
      Some (bench, spec, [ planned_tag; string_of_int waves ], perf_json ~spec ~waves)
  | Protocol.Faults { bench; spec; waves } ->
      Some (bench, spec, [ planned_tag; string_of_int waves ], faults_json ~spec ~waves)
  | Protocol.Import _ | Protocol.Stats | Protocol.Health | Protocol.Ping
  | Protocol.Sleep _ | Protocol.Shutdown ->
      None

(* The cache key of a benchmark-sourced request, but only when the
   canonical BLIF is already memoized: used by the event loop to answer
   repeat requests inline without occupying a worker.  Never elaborates
   RTL (that would block the loop), so a cold benchmark returns [None]. *)
let probe_key req =
  Option.bind (bench_job req) (fun (bid, spec, extras, _) ->
      Option.map
        (fun blif -> cache_key req ~blif spec extras)
        (Ee_util.Memo.Shared.find_opt bench_blif_memo bid))

(* Returns (result payload, served-from-cache). *)
let compute ~cache (req : Protocol.request) =
  match bench_job req with
  | Some (bid, spec, extras, run) ->
      let b = find_bench bid in
      with_cache cache
        (cache_key req ~blif:(canonical_bench_blif b) spec extras)
        (fun () -> run b)
  | None -> (
      match req with
      | Protocol.Import { text; format; remap; search; spec } -> (
          match Ee_frontend.Frontend.parse ?format text with
          | Error e -> raise (Reject ("bad_request", e))
          | Ok nl ->
              let format =
                match format with
                | Some f -> f
                | None -> Ee_frontend.Frontend.detect text
              in
              (* Content-addressed on the canonical BLIF of the parsed
                 netlist, so the same circuit arriving as BLIF, ASCII or
                 binary AIGER shares compute per (remap, spec); the source
                 format stays in the key because the payload echoes it. *)
              let extras =
                [ string_of_bool remap; Ee_frontend.Frontend.format_to_string format ]
                @ search_extra search
              in
              with_cache cache
                (cache_key req ~blif:(Blif.to_blif nl) spec extras)
                (fun () -> import_json ~spec ~remap ~search ~format nl))
      | Protocol.Sleep s ->
          Unix.sleepf s;
          (Json.Obj [ ("slept_s", Json.Float s) ], false)
      | _ -> invalid_arg "Server.compute: inline command" (* handled by the event loop *))

(* -------------------------------------------------------------------- *)
(* Metrics (shared across shards and workers; one small mutex)          *)
(* -------------------------------------------------------------------- *)

(* Last-N latency samples per command; order does not matter for
   percentiles, so a plain circular overwrite suffices. *)
type lat_ring = { samples : float array; mutable seen : int }

let ring_capacity = 4096

let ring_add r v =
  r.samples.(r.seen mod ring_capacity) <- v;
  r.seen <- r.seen + 1

let ring_values r = Array.sub r.samples 0 (min r.seen ring_capacity)

type metrics = {
  m_lock : Mutex.t;
  mutable total : int;
  ok_counts : (string, int ref) Hashtbl.t;  (* cmd -> ok responses *)
  err_counts : (string * string, int ref) Hashtbl.t;  (* cmd, code -> count *)
  tier_counts : (string, int ref) Hashtbl.t;  (* admission tier -> count *)
  lats : (string, lat_ring) Hashtbl.t;
  mutable work_ewma_s : float;  (* smoothed per-request worker occupancy *)
  started : float;
}

let metrics_create () =
  {
    m_lock = Mutex.create ();
    total = 0;
    ok_counts = Hashtbl.create 8;
    err_counts = Hashtbl.create 8;
    tier_counts = Hashtbl.create 4;
    lats = Hashtbl.create 8;
    work_ewma_s = 0.;
    started = Unix.gettimeofday ();
  }

let m_locked m f =
  Mutex.lock m.m_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock m.m_lock) f

let bump tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> incr r
  | None -> Hashtbl.replace tbl key (ref 1)

let record m ~cmd ~outcome ~lat_ms =
  m_locked m (fun () ->
      m.total <- m.total + 1;
      (match outcome with
      | `Ok -> bump m.ok_counts cmd
      | `Error code -> bump m.err_counts (cmd, code));
      let ring =
        match Hashtbl.find_opt m.lats cmd with
        | Some r -> r
        | None ->
            let r = { samples = Array.make ring_capacity 0.; seen = 0 } in
            Hashtbl.replace m.lats cmd r;
            r
      in
      ring_add ring lat_ms)

let bump_tier m tier = m_locked m (fun () -> bump m.tier_counts tier)

(* Worker-side occupancy sample: feeds the retry-after estimate. *)
let note_work m dt =
  m_locked m (fun () ->
      m.work_ewma_s <-
        (if m.work_ewma_s <= 0. then dt else (0.8 *. m.work_ewma_s) +. (0.2 *. dt)))

(* Retry-after hint: roughly how long until the backlog in front of a
   retry would drain, from the smoothed per-request worker time. *)
let retry_after_hint m ~inflight ~workers =
  let ewma = m_locked m (fun () -> m.work_ewma_s) in
  let est =
    if ewma <= 0. then 0.1
    else ewma *. float_of_int (inflight + 1) /. float_of_int (max 1 workers)
  in
  Float.min 10. (Float.max 0.05 est)

(* -------------------------------------------------------------------- *)
(* Shards                                                               *)
(* -------------------------------------------------------------------- *)

(* One IO shard: a select loop over its adopted connections plus the read
   end of a self-pipe.  The acceptor hands new fds over via [incoming];
   pool workers write a wake byte when a result slot fills, so the loop
   never needs a short poll tick to notice completions. *)
type shard = {
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  incoming_lock : Mutex.t;
  mutable incoming : Unix.file_descr list;
  handled : int Atomic.t;  (* responses written, for balance accounting *)
  depth : int Atomic.t;  (* admitted requests queued or running on this shard *)
}

let wake sh =
  (* Nonblocking: a full pipe already guarantees a pending wake-up. *)
  try ignore (Unix.write sh.wake_w (Bytes.make 1 'w') 0 1) with Unix.Unix_error _ -> ()

let drain_wake sh =
  let buf = Bytes.create 512 in
  let rec go () =
    match Unix.read sh.wake_r buf 0 (Bytes.length buf) with
    | n when n = Bytes.length buf -> go ()
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let shards_json shards =
  let handled = Array.map (fun sh -> Atomic.get sh.handled) shards in
  let total = Array.fold_left ( + ) 0 handled in
  let n = Array.length shards in
  let balance =
    if total = 0 then Json.Null
    else
      let mean = float_of_int total /. float_of_int n in
      Json.Float (float_of_int (Array.fold_left min max_int handled) /. mean)
  in
  Json.Obj
    [
      ("count", Json.Int n);
      ("requests", Json.List (Array.to_list (Array.map (fun h -> Json.Int h) handled)));
      ("balance", balance);
    ]

(* -------------------------------------------------------------------- *)
(* Stats payload                                                        *)
(* -------------------------------------------------------------------- *)

let metrics_json m ~inflight ~cfg ~cache ~shards =
  let cs = Cache.stats cache in
  let tier = Cache.tier_stats cache in
  let throttle, shed = tier_thresholds cfg in
  m_locked m (fun () ->
      let cmds =
        List.sort_uniq compare
          (Hashtbl.fold (fun cmd _ acc -> cmd :: acc) m.ok_counts []
          @ Hashtbl.fold (fun (cmd, _) _ acc -> cmd :: acc) m.err_counts [])
      in
      let command_json cmd =
        let ok = match Hashtbl.find_opt m.ok_counts cmd with Some r -> !r | None -> 0 in
        let errors =
          Hashtbl.fold
            (fun (c, code) r acc -> if c = cmd then (code, Json.Int !r) :: acc else acc)
            m.err_counts []
        in
        let count =
          ok + List.fold_left (fun acc (_, j) -> acc + Option.get (Json.to_int j)) 0 errors
        in
        let latency =
          match Hashtbl.find_opt m.lats cmd with
          | Some r when r.seen > 0 ->
              let values = ring_values r in
              let p q = Json.Float (Stats.percentile values q) in
              [
                ("latency_ms",
                 Json.Obj
                   [ ("p50", p 50.); ("p90", p 90.); ("p99", p 99.); ("max", p 100.) ]);
              ]
          | _ -> []
        in
        ( cmd,
          Json.Obj
            ([ ("count", Json.Int count); ("ok", Json.Int ok) ]
            @ (if errors = [] then [] else [ ("errors", Json.Obj (List.sort compare errors)) ])
            @ latency) )
      in
      let tier_count name =
        (name, Json.Int (match Hashtbl.find_opt m.tier_counts name with Some r -> !r | None -> 0))
      in
      let looked_up = cs.Cache.hits + cs.Cache.disk_hits + cs.Cache.misses in
      let hit_rate =
        if looked_up = 0 then Json.Null
        else
          Json.Float
            (float_of_int (cs.Cache.hits + cs.Cache.disk_hits) /. float_of_int looked_up)
      in
      Json.Obj
        [
          ("uptime_s", Json.Float (Unix.gettimeofday () -. m.started));
          ("requests_total", Json.Int m.total);
          ("inflight", Json.Int inflight);
          ("queue_limit", Json.Int cfg.max_pending);
          ("throttle_pending", Json.Int throttle);
          ("shed_pending", Json.Int shed);
          ( "tiers",
            Json.Obj (List.map tier_count [ "ok"; "throttled"; "shed"; "overloaded" ]) );
          ("shards", shards_json shards);
          ("commands", Json.Obj (List.map command_json cmds));
          ( "cache",
            Json.Obj
              ([
                 ("hits", Json.Int cs.Cache.hits);
                 ("disk_hits", Json.Int cs.Cache.disk_hits);
                 ("misses", Json.Int cs.Cache.misses);
                 ("insertions", Json.Int cs.Cache.insertions);
                 ("evictions", Json.Int cs.Cache.evictions);
                 ("entries", Json.Int cs.Cache.entries);
                 ("bytes", Json.Int cs.Cache.bytes);
                 ("max_bytes", Json.Int cs.Cache.max_bytes);
                 ("quarantined", Json.Int cs.Cache.quarantined);
                 ("hit_rate", hit_rate);
               ]
              @
              match tier with
              | Some t ->
                  [
                    ("tier_entries", Json.Int t.Cache.tier_entries);
                    ("tier_bytes", Json.Int t.Cache.tier_bytes);
                  ]
              | None -> []) );
        ])

(* The supervisor's liveness probe: a compact snapshot answered inline by
   the event loop.  A wedged worker pool still answers (depth grows, a
   signal in itself); a wedged event loop does not, which is exactly what
   the heartbeat should detect. *)
let health_json m ~inflight ~cfg ~cache ~shards =
  let cs = Cache.stats cache in
  let depths =
    Array.to_list (Array.map (fun sh -> Json.Int (Atomic.get sh.depth)) shards)
  in
  Json.Obj
    [
      ("pid", Json.Int (Unix.getpid ()));
      ("uptime_s", Json.Float (Unix.gettimeofday () -. m.started));
      ("inflight", Json.Int inflight);
      ("queue_limit", Json.Int cfg.max_pending);
      ("shard_depth", Json.List depths);
      ("shards", shards_json shards);
      ( "cache",
        Json.Obj
          [
            ("entries", Json.Int cs.Cache.entries);
            ("bytes", Json.Int cs.Cache.bytes);
            ("hits", Json.Int cs.Cache.hits);
            ("disk_hits", Json.Int cs.Cache.disk_hits);
            ("misses", Json.Int cs.Cache.misses);
            ("quarantined", Json.Int cs.Cache.quarantined);
          ] );
    ]

(* -------------------------------------------------------------------- *)
(* Per-shard event loop                                                 *)
(* -------------------------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;  (* non-blocking *)
  inbuf : Buffer.t; (* bytes read and not yet framed into lines *)
  queue : Lifecycle.entry Queue.t;
  mutable alive : bool;
  mutable reading : bool;
      (* input still open: cleared at its end or on a refused line, after
         which the connection closes once its written replies are sent *)
  mutable out : Bytes.t; (* replies not yet written: [out_start, out_stop) *)
  mutable out_start : int;
  mutable out_stop : int;
}

let now () = Unix.gettimeofday ()

let host_port spec =
  match String.rindex_opt spec ':' with
  | None -> Error "expected HOST:PORT for --tcp"
  | Some i -> (
      let port = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 -> Ok (String.sub spec 0 i, p)
      | _ -> Error (Printf.sprintf "bad port %S in --tcp" port))

let sockaddr = function
  | `Unix path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | `Tcp (host, port) ->
      let addr =
        try Unix.inet_addr_of_string host
        with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      (Unix.PF_INET, Unix.ADDR_INET (addr, port))

let listen_socket ~backlog address =
  let domain, addr = sockaddr address in
  (match addr with Unix.ADDR_UNIX path when Sys.file_exists path -> Unix.unlink path | _ -> ());
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  if domain = Unix.PF_INET then Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd addr;
  Unix.listen fd backlog;
  fd

let pending conn = conn.out_stop - conn.out_start

(* Write as much pending output as the socket takes now. *)
let flush conn =
  if conn.alive then
    try
      while pending conn > 0 do
        let k = Unix.single_write conn.fd conn.out conn.out_start (pending conn) in
        conn.out_start <- conn.out_start + k
      done
    with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | Unix.Unix_error _ -> conn.alive <- false

(* Queue a reply line behind the connection's pending output and write what
   the socket takes; the shard loop writes the rest when the socket is
   writable.  So a client that does not read its replies never blocks the
   loop, and one that leaves more than [max_request_bytes] unread is
   disconnected. *)
let send conn line =
  if conn.alive then begin
    let len = String.length line + 1 and live = pending conn in
    if conn.out_stop + len > Bytes.length conn.out then begin
      let b =
        if live + len <= Bytes.length conn.out then conn.out
        else Bytes.create (max (live + len) (2 * Bytes.length conn.out))
      in
      Bytes.blit conn.out conn.out_start b 0 live;
      conn.out <- b;
      conn.out_start <- 0;
      conn.out_stop <- live
    end;
    Bytes.blit_string line 0 conn.out conn.out_stop (len - 1);
    Bytes.set conn.out (conn.out_stop + len - 1) '\n';
    conn.out_stop <- conn.out_stop + len;
    flush conn;
    if pending conn > max_request_bytes then conn.alive <- false
  end

let shard_loop ~cfg ~pool ~cache ~metrics ~inflight ~stop ~shards sh =
  let workers = Pool.size pool in
  let conns : conn list ref = ref [] in
  let stop_at = ref None in

  (* -- batch slice submission: the admitted lines of one read go to the
        pool as consecutive slices, at most two per worker, one pool
        submission per slice; requests are cheap, so a task per line
        would cost more in queue round-trips than the work itself -- *)
  let submit_batch (admits : (Protocol.request * Lifecycle.slot) array) =
    let n = Array.length admits in
    let chunk = max 1 ((n + (2 * workers) - 1) / (2 * workers)) in
    let i = ref 0 in
    while !i < n do
      let lo = !i in
      let hi = min n (lo + chunk) in
      i := hi;
      let count = hi - lo in
      ignore (Atomic.fetch_and_add inflight count);
      match
        Pool.submit pool (fun () ->
            for j = lo to hi - 1 do
              let req, slot = admits.(j) in
              let t_start = now () in
              let res =
                try Ok (compute ~cache req) with
                | Reject (code, msg) -> Error (code, msg)
                | e -> Error ("internal", Printexc.to_string e)
              in
              Atomic.decr inflight;
              note_work metrics (now () -. t_start);
              Atomic.set slot (Some res);
              wake sh
            done)
      with
      | (_ : unit Pool.task) -> ()
      | exception e ->
          ignore (Atomic.fetch_and_add inflight (-count));
          for j = lo to hi - 1 do
            Atomic.set (snd admits.(j)) (Some (Error ("internal", Printexc.to_string e)))
          done
    done
  in
  let throttle, shed = tier_thresholds cfg in
  let lc =
    {
      Lifecycle.ops =
        {
          now;
          inline =
            (function
            | Protocol.Stats ->
                metrics_json metrics ~inflight:(Atomic.get inflight) ~cfg ~cache ~shards
            | Protocol.Health ->
                health_json metrics ~inflight:(Atomic.get inflight) ~cfg ~cache ~shards
            | Protocol.Shutdown ->
                cfg.log "shutdown requested";
                Atomic.set stop true;
                Json.Obj [ ("stopping", Json.Bool true) ]
            | _ -> Json.Obj [] (* ping *));
          cached = (fun req -> Option.bind (probe_key req) (Cache.find cache));
          submit = submit_batch;
          send =
            (fun conn line ->
              (* Count before writing: a client that has read its response
                 (and may immediately ask for stats) must already be
                 visible in the counter. *)
              Atomic.incr sh.handled;
              send conn line;
              conn.alive);
          tier = bump_tier metrics;
          retry_after = retry_after_hint metrics ~workers;
          record = record metrics;
        };
      max_pending = cfg.max_pending;
      throttle;
      shed;
      default_deadline_s = cfg.default_deadline_s;
      stop;
      inflight;
      depth = sh.depth;
    }
  in
  let pump c = if c.alive then Lifecycle.pump lc c c.queue in
  let close c =
    Lifecycle.drop lc c.queue;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  in

  (* Frame the complete lines of a connection's input, of which the bytes
     before [from] hold no newline, and refuse an oversized unfinished
     line. *)
  let process_input conn ~from =
    let b = conn.inbuf in
    let lines = Protocol.take_lines b ~from in
    if lines <> [] then Lifecycle.batch lc conn.queue lines;
    if Buffer.length b > max_request_bytes then begin
      send conn
        (Protocol.error_response ~id:Json.Null ~cmd:"?" ~code:"bad_request"
           (Printf.sprintf "request exceeds %d bytes" max_request_bytes));
      Buffer.reset b;
      conn.reading <- false
    end
  in

  let chunk = Bytes.create 65536 in
  let read_chunk conn =
    match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
    | 0 -> conn.reading <- false
    | k ->
        let from = Buffer.length conn.inbuf in
        Buffer.add_subbytes conn.inbuf chunk 0 k;
        process_input conn ~from
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> conn.alive <- false
  in

  (* The select timeout only has to cover what the wake pipe cannot:
     pending deadlines and the stop flag.  Worker completions and new
     connections both arrive as wake bytes. *)
  let select_timeout ~stopping =
    let t = now () in
    let nearest until c =
      Option.fold ~none:until ~some:(Float.min until) (Lifecycle.deadline c.queue)
    in
    Float.max 0. (List.fold_left nearest (t +. if stopping then 0.01 else 0.05) !conns -. t)
  in

  let rec loop () =
    (* Adopt connections handed over by the acceptor. *)
    Mutex.lock sh.incoming_lock;
    let fresh = sh.incoming in
    sh.incoming <- [];
    Mutex.unlock sh.incoming_lock;
    List.iter
      (fun fd ->
        let alive =
          match Unix.set_nonblock fd with () -> true | exception Unix.Unix_error _ -> false
        in
        conns :=
          {
            fd;
            inbuf = Buffer.create 4096;
            queue = Queue.create ();
            alive;
            reading = true;
            out = Bytes.empty;
            out_start = 0;
            out_stop = 0;
          }
          :: !conns)
      fresh;
    (* Drop closed connections, and those whose input has ended once their
       written replies are sent. *)
    let live, dead = List.partition (fun c -> c.alive && (c.reading || pending c > 0)) !conns in
    List.iter close dead;
    conns := live;
    List.iter pump !conns;
    let stopping = Atomic.get stop in
    if stopping && !stop_at = None then stop_at := Some (now ());
    let drained =
      List.for_all (fun c -> Queue.is_empty c.queue && (pending c = 0 || not c.alive)) !conns
    in
    let grace_over =
      match !stop_at with Some t -> now () -. t > cfg.shutdown_grace_s | None -> false
    in
    if stopping && (drained || grace_over) then begin
      if not drained then List.iter (fun c -> if c.alive then Lifecycle.flush lc c c.queue) !conns
    end
    else begin
      let fds = sh.wake_r :: List.filter_map (fun c -> if c.reading then Some c.fd else None) !conns in
      let wfds = List.filter_map (fun c -> if pending c > 0 then Some c.fd else None) !conns in
      let readable, writable, _ =
        match Unix.select fds wfds [] (select_timeout ~stopping) with
        | r -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        | exception Unix.Unix_error (Unix.EBADF, _, _) -> ([], [], [])
      in
      if List.mem sh.wake_r readable then drain_wake sh;
      List.iter (fun c -> if List.mem c.fd writable then flush c) !conns;
      List.iter (fun c -> if c.alive && c.reading && List.mem c.fd readable then read_chunk c) !conns;
      List.iter pump !conns;
      loop ()
    end
  in
  loop ();
  List.iter close !conns

(* -------------------------------------------------------------------- *)
(* Acceptor + lifecycle                                                 *)
(* -------------------------------------------------------------------- *)

let acceptor ~cfg ~stop ~shards listen_fd =
  let next = ref 0 in
  let accept_all () =
    let continue = ref true in
    while !continue do
      match Unix.accept ~cloexec:true listen_fd with
      | fd, _ ->
          (match cfg.address with
          | `Tcp _ -> (
              try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ())
          | `Unix _ -> ());
          let sh = shards.(!next mod Array.length shards) in
          incr next;
          Mutex.lock sh.incoming_lock;
          sh.incoming <- fd :: sh.incoming;
          Mutex.unlock sh.incoming_lock;
          wake sh
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          continue := false
      | exception Unix.Unix_error _ -> continue := false
    done
  in
  let rec loop () =
    if not (Atomic.get stop) then begin
      (match Unix.select [ listen_fd ] [] [] 0.05 with
      | [], _, _ -> ()
      | _ -> accept_all ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (Unix.EBADF, _, _) -> ());
      loop ()
    end
  in
  loop ()

let serve ?cache ?stop cfg =
  let cache = match cache with Some c -> c | None -> cache_of_config cfg in
  let stop = match stop with Some s -> s | None -> Atomic.make false in
  (match Sys.os_type with
  | "Unix" -> ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
  | _ -> ());
  let listen_fd = listen_socket ~backlog:(backlog_of cfg) cfg.address in
  Unix.set_nonblock listen_fd;
  let pool = Pool.create ~force_spawn:true ~domains:cfg.domains () in
  let inflight = Atomic.make 0 in
  let metrics = metrics_create () in
  let nshards = max 1 (min 64 cfg.shards) in
  let shards =
    Array.init nshards (fun _ ->
        let wake_r, wake_w = Unix.pipe ~cloexec:true () in
        Unix.set_nonblock wake_r;
        Unix.set_nonblock wake_w;
        {
          wake_r;
          wake_w;
          incoming_lock = Mutex.create ();
          incoming = [];
          handled = Atomic.make 0;
          depth = Atomic.make 0;
        })
  in
  cfg.log
    (Printf.sprintf "listening on %s (shards=%d domains=%d queue=%d backlog=%d cache=%dMiB)"
       (match cfg.address with
       | `Unix p -> "unix:" ^ p
       | `Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p)
       nshards (Pool.size pool) cfg.max_pending (backlog_of cfg)
       (cfg.cache_max_bytes / (1024 * 1024)));
  let shard_domains =
    Array.map
      (fun sh ->
        Domain.spawn (fun () ->
            shard_loop ~cfg ~pool ~cache ~metrics ~inflight ~stop ~shards sh))
      shards
  in
  acceptor ~cfg ~stop ~shards listen_fd;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  Array.iter wake shards;
  Array.iter Domain.join shard_domains;
  (* Connections the acceptor handed over in the instant a stopping shard
     was exiting were never adopted; close them or their clients would
     block forever on a leaked open fd. *)
  Array.iter
    (fun sh ->
      Mutex.lock sh.incoming_lock;
      let orphans = sh.incoming in
      sh.incoming <- [];
      Mutex.unlock sh.incoming_lock;
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) orphans)
    shards;
  (match cfg.address with
  | `Unix path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | `Tcp _ -> ());
  (* A worker stuck past its deadline would block a joining shutdown.  The
     wake pipes may only be closed after a clean join: an abandoned worker
     still writes its wake byte, and a recycled fd number must not receive
     it. *)
  let leftover = Atomic.get inflight in
  if leftover = 0 then begin
    Pool.shutdown pool;
    Array.iter
      (fun sh ->
        (try Unix.close sh.wake_r with Unix.Unix_error _ -> ());
        try Unix.close sh.wake_w with Unix.Unix_error _ -> ())
      shards
  end
  else Pool.abandon pool;
  let total = m_locked metrics (fun () -> metrics.total) in
  cfg.log
    (if leftover = 0 then Printf.sprintf "stopped after %d requests" total
     else
       Printf.sprintf "stopped after %d requests (%d abandoned in flight)" total
         leftover)

let daemon ?jobs ?shards ?queue ?backlog ?deadline ?cache_dir ?tier ~cache_mb ~log ~stop address =
  let cache_dir = if tier = None then cache_dir else tier in
  let cfg = make_config ?jobs ?shards ?queue ?backlog ?deadline ?cache_dir ~cache_mb ~log address in
  (* A tier differs from a plain cache directory only at start-up: it is
     preloaded into the memory LRU, so a restarted or second daemon starts
     warm instead of paying disk hits. *)
  let cache = cache_of_config cfg in
  Option.iter
    (fun dir -> log (Printf.sprintf "tier %s: preloaded %d entries" dir (Cache.preload cache)))
    tier;
  serve ~cache ~stop cfg
