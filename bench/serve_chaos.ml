open Report

(* A daemon reply, parsed, when its status is "ok". *)
let ok_reply line =
  match Json.parse line with
  | Ok j when Json.member "status" j = Some (Json.String "ok") -> Some j
  | _ -> None

let synth_line ?(seed = seed) id =
  Printf.sprintf "{\"cmd\":\"synth\",\"bench\":%S,\"vectors\":%d,\"seed\":%d}" id !vectors seed

(* The synthesis service: cold vs warm (content-addressed cache hit)
   latency, closed-loop pipelined warm throughput, then an open-loop load
   test — many simulated clients multiplexed from a few driver domains,
   mixed warm/cold/non-cacheable traffic at a fixed arrival rate —
   recording cold/warm p50/p90/p99, per-tier rejection counts and shard
   balance, plus the import path per layer and cold import latency.
   Writes BENCH_serve.json; fails the run if the warm path is
   less than 10x faster than cold, and (on multi-core machines) if warm
   p99 under load blows past the p50-relative gate or a shard starves. *)

(* Per-driver outcome of the open-loop phase. *)
type load_result = {
  lr_sent : int;
  lr_completed : int;
  lr_dropped : int;  (* skipped sends: per-connection outstanding cap hit *)
  lr_unanswered : int;  (* still pending when the drain window closed *)
  lr_warm : float list;  (* latency ms per traffic class *)
  lr_cold : float list;
  lr_sleep : float list;
  lr_errs : (string * int) list;  (* structured error code -> count *)
}

(* Pull the "error" code out of a response line without a full JSON parse:
   the load loop handles thousands of lines per second. *)
let extract_error line =
  let marker = "\"error\":\"" in
  let n = String.length line and m = String.length marker in
  let rec find i =
    if i + m > n then None
    else if String.sub line i m = marker then Some (i + m)
    else find (i + 1)
  in
  Option.bind (find 0) (fun s ->
      Option.map
        (fun e -> String.sub line s (e - s))
        (String.index_from_opt line s '"'))

(* The import path layer by layer, over the 31 import texts of the
   perfbench [serve_mix] workload (b01, b02, b03, b06, b08, b09 and b10 as
   ASCII AIGER, binary AIGER and BLIF, then ten corpus entries of seed
   2002): parse, the canonical BLIF of the cache key, the remapper's
   lowering to gates, cut labeling plus emission in [Delay] mode, and the
   Eq. 1 plan plus Table 3 row at 100 vectors.  Per layer, wall ms and
   minor words per text, the best of five passes. *)
let import_vectors = 100

let import_texts () =
  List.concat_map
    (fun id ->
      let b = Ee_bench_circuits.Itc99.find id in
      let nl = Ee_rtl.Techmap.run_rtl (b.Ee_bench_circuits.Itc99.build ()) in
      [
        Ee_frontend.Aiger.to_ascii nl;
        Ee_frontend.Aiger.to_binary nl;
        Ee_export.Blif.to_blif ~model:id nl;
      ])
    [ "b01"; "b02"; "b03"; "b06"; "b08"; "b09"; "b10" ]
  @ List.map (fun e -> e.Ee_frontend.Corpus.e_text) (Ee_frontend.Corpus.generate ~seed ~n:10)

let import_layers texts =
  let module Remap = Ee_frontend.Remap in
  let texts = Array.of_list texts in
  let parsed = Array.map (fun t -> Ee_frontend.Frontend.parse_exn t) texts in
  let lowered = Array.map Remap.to_gates parsed in
  let mapped = Array.map (fun nl -> Remap.run nl) parsed in
  let spec = suite_spec () |> Engine.with_vectors import_vectors in
  let layer name inputs f =
    let n = float_of_int (Array.length inputs) in
    let best = ref infinity and words = ref 0. in
    for _ = 1 to 5 do
      let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
      Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) inputs;
      best := Float.min !best (Unix.gettimeofday () -. t0);
      words := Gc.minor_words () -. w0
    done;
    (name, !best *. 1000. /. n, !words /. n)
  in
  [
    layer "parse" texts (fun t -> Ee_frontend.Frontend.parse_exn t);
    layer "canonical_blif" parsed (fun nl -> Ee_export.Blif.to_blif nl);
    layer "lowering" parsed Remap.to_gates;
    layer "cut_labeling_emission" lowered (fun g ->
        Ee_rtl.Cutmap.run ~mode:Ee_rtl.Cutmap.Delay ~flat_ports:true g);
    layer "plan_row" mapped (fun nl ->
        let pl = Ee_phased.Pl.of_netlist nl in
        let pl_ee, report = Engine.plan spec pl in
        Ee_report.Tables.row ~vectors:import_vectors ~seed ~config:(Engine.sim_config spec)
          ~id:"netlist" ~description:"" report pl pl_ee);
  ]

let print_serve ~clients () =
  section "Serve: sharded ee_synthd cold/warm latency and load test";
  let module Server = Ee_serve.Server in
  let module Client = Ee_serve.Client in
  let sock = Filename.concat (Filename.get_temp_dir_name ()) "ee_synthd_bench.sock" in
  (* The server runs in this process, so every simulated client costs two
     fds here; Unix.select caps fd values below 1024. *)
  let clients =
    if clients > 384 then begin
      Printf.printf "(capping --clients %d to 384: select FD_SETSIZE)\n" clients;
      384
    end
    else max 4 clients
  in
  (* The import layers are timed before the server's domains start, so
     no other domain shares the minor collections. *)
  let texts = import_texts () in
  let layers = import_layers texts in
  let stop = Atomic.make false in
  let shards = 2 in
  let cfg =
    {
      Server.default_config with
      Server.address = `Unix sock;
      shards;
      domains = 2;
      max_pending = 64;
    }
  in
  let server = Domain.spawn (fun () -> Server.serve ~stop cfg) in
  let c = Client.connect ~retries:100 (`Unix sock) in
  let time_request client line =
    let t0 = Unix.gettimeofday () in
    let resp = Client.request_line client line in
    if ok_reply resp = None then failwith ("serve bench: request failed: " ^ resp);
    (Unix.gettimeofday () -. t0) *. 1000.
  in
  let benches = [ "b04"; "b11"; "b12" ] in
  let t =
    Ee_util.Table.create ~headers:[ "Benchmark"; "Cold (ms)"; "Warm p50 (ms)"; "Speedup" ]
  in
  let latency_rows =
    List.map
      (fun id ->
        let cold = time_request c (synth_line id) in
        let warm = Array.init 50 (fun _ -> time_request c (synth_line id)) in
        let warm_p50 = pct warm 50. in
        let speedup = cold /. Float.max warm_p50 1e-6 in
        Ee_util.Table.add_row t
          [
            id;
            Printf.sprintf "%.2f" cold;
            Printf.sprintf "%.3f" warm_p50;
            Printf.sprintf "%.0fx" speedup;
          ];
        (id, cold, warm_p50, speedup))
      benches
  in
  Ee_util.Table.print t;
  (* Cold imports: each of the 31 texts once, with a seed no earlier
     request used. *)
  let import_cold =
    Array.of_list
      (List.mapi
         (fun k text ->
           let body =
             if Ee_frontend.Frontend.detect text = Ee_frontend.Frontend.Aiger_binary then
               [
                 ("text", Json.String (Ee_util.Base64.encode text));
                 ("encoding", Json.String "base64");
               ]
             else [ ("text", Json.String text) ]
           in
           time_request c
             (Json.to_string
                (Json.Obj
                   ((("cmd", Json.String "import") :: body)
                   @ [ ("vectors", Json.Int import_vectors); ("seed", Json.Int (seed + 1 + k)) ]))))
         texts)
  in
  let t =
    Ee_util.Table.create ~headers:[ "Import layer"; "ms per text"; "minor words per text" ]
  in
  List.iter
    (fun (name, ms, words) ->
      Ee_util.Table.add_row t [ name; Printf.sprintf "%.3f" ms; Printf.sprintf "%.0f" words ])
    layers;
  Ee_util.Table.print t;
  Printf.printf "cold import through the daemon: p50 %.2f ms, p90 %.2f ms (%d texts)\n"
    (pct import_cold 50.) (pct import_cold 90.) (Array.length import_cold);
  (* Phase A — closed-loop warm throughput: a few drivers each keep a
     pipeline of warm requests outstanding on one connection. *)
  let drivers = 4 in
  let depth = 8 in
  let phase_a_s = if !vectors <= 25 then 1.0 else 2.0 in
  let t0 = Unix.gettimeofday () in
  let counts =
    Ee_util.Pool.run ~domains:drivers
      (fun k ->
        let cc = Client.connect ~retries:10 (`Unix sock) in
        let line i = synth_line (List.nth benches ((k + i) mod 3)) in
        for i = 1 to depth do
          Client.send_line cc (line i)
        done;
        let completed = ref 0 in
        let n = ref depth in
        let t_end = t0 +. phase_a_s in
        while Unix.gettimeofday () < t_end do
          ignore (Client.recv_line cc);
          incr completed;
          incr n;
          Client.send_line cc (line !n)
        done;
        for _ = 1 to depth do
          ignore (Client.recv_line cc);
          incr completed
        done;
        Client.close cc;
        !completed)
      (List.init drivers Fun.id)
  in
  let wall = Unix.gettimeofday () -. t0 in
  let total_a = List.fold_left ( + ) 0 counts in
  let rps = float_of_int total_a /. Float.max wall 1e-9 in
  Printf.printf
    "\nclosed loop: %d drivers x depth-%d pipeline, %.1f s: %d warm requests (%.0f requests/s)\n"
    drivers depth wall total_a rps;
  (* Phase B — open loop: [clients] connections spread over the driver
     domains, sends scheduled at a fixed arrival rate (0.7x the closed-loop
     capacity), traffic mixed 2% sleep (non-cacheable), 5% cold synth
     (unique seeds), the rest warm. *)
  let offered = 0.7 *. rps in
  let phase_b_s = if !vectors <= 25 then 1.5 else 3.0 in
  let cold_seed = Atomic.make 100_000 in
  let per_driver = max 1 (clients / drivers) in
  let run_driver k =
    let module Q = Queue in
    let conns =
      Array.init per_driver (fun _ ->
          let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX sock);
          (fd, Buffer.create 4096, (Q.create () : (int * float) Q.t)))
    in
    let warm = ref [] and cold = ref [] and sleeps = ref [] in
    let errs = Hashtbl.create 8 in
    let sent = ref 0 and completed = ref 0 and dropped = ref 0 in
    let interval = float_of_int drivers /. Float.max offered 1. in
    let t_start = Unix.gettimeofday () in
    let t_end = t_start +. phase_b_s in
    let next_send = ref (t_start +. (interval *. float_of_int k /. float_of_int drivers)) in
    let rr = ref 0 in
    let mix = ref 0 in
    let on_line line (kind, t_send) =
      incr completed;
      let lat = (Unix.gettimeofday () -. t_send) *. 1000. in
      (match kind with
      | 0 -> warm := lat :: !warm
      | 1 -> cold := lat :: !cold
      | _ -> sleeps := lat :: !sleeps);
      Option.iter (bump errs) (extract_error line)
    in
    let chunk = Bytes.create 65536 in
    let read_conn (fd, rbuf, pending) =
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
          let from = Buffer.length rbuf in
          Buffer.add_subbytes rbuf chunk 0 n;
          List.iter
            (fun line ->
              match Q.take_opt pending with Some tag -> on_line line tag | None -> ())
            (Ee_serve.Protocol.take_lines rbuf ~from)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | exception Unix.Unix_error _ -> ()
    in
    let send_one now =
      let fd, _, pending = conns.(!rr mod per_driver) in
      incr rr;
      if Q.length pending >= 64 then incr dropped
      else begin
        incr mix;
        let m = !mix in
        let kind, line =
          if m mod 50 = 11 then (2, "{\"cmd\":\"sleep\",\"seconds\":0.002}")
          else if m mod 20 = 3 then
            (1, synth_line ~seed:(Atomic.fetch_and_add cold_seed 1) "b04")
          else (0, synth_line (List.nth benches (m mod 3)))
        in
        let data = Bytes.of_string (line ^ "\n") in
        let len = Bytes.length data in
        let off = ref 0 in
        (try
           while !off < len do
             off := !off + Unix.write fd data !off (len - !off)
           done
         with Unix.Unix_error _ -> ());
        Q.add (kind, now) pending;
        incr sent
      end
    in
    let fds = Array.to_list (Array.map (fun (fd, _, _) -> fd) conns) in
    let rec loop () =
      let now = Unix.gettimeofday () in
      if now < t_end then begin
        while !next_send <= Unix.gettimeofday () && Unix.gettimeofday () < t_end do
          send_one (Unix.gettimeofday ());
          next_send := !next_send +. interval
        done;
        let now = Unix.gettimeofday () in
        let timeout = Float.max 0. (Float.min (!next_send -. now) 0.02) in
        (match Unix.select fds [] [] timeout with
        | readable, _, _ ->
            Array.iter (fun ((fd, _, _) as c) -> if List.mem fd readable then read_conn c) conns
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        loop ()
      end
    in
    loop ();
    (* Drain what is still outstanding, bounded. *)
    let drain_deadline = Unix.gettimeofday () +. 2.0 in
    let outstanding () = Array.exists (fun (_, _, p) -> not (Q.is_empty p)) conns in
    while outstanding () && Unix.gettimeofday () < drain_deadline do
      match Unix.select fds [] [] 0.05 with
      | readable, _, _ ->
          Array.iter (fun ((fd, _, _) as c) -> if List.mem fd readable then read_conn c) conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    let unanswered = Array.fold_left (fun a (_, _, p) -> a + Q.length p) 0 conns in
    Array.iter (fun (fd, _, _) -> try Unix.close fd with Unix.Unix_error _ -> ()) conns;
    {
      lr_sent = !sent;
      lr_completed = !completed;
      lr_dropped = !dropped;
      lr_unanswered = unanswered;
      lr_warm = !warm;
      lr_cold = !cold;
      lr_sleep = !sleeps;
      lr_errs = count_list errs;
    }
  in
  let results = Ee_util.Pool.run ~domains:drivers run_driver (List.init drivers Fun.id) in
  let sum f = List.fold_left (fun a r -> a + f r) 0 results in
  let gather f = List.concat_map f results in
  let sent = sum (fun r -> r.lr_sent)
  and completed = sum (fun r -> r.lr_completed)
  and dropped = sum (fun r -> r.lr_dropped)
  and unanswered = sum (fun r -> r.lr_unanswered) in
  let warm_all = Array.of_list (gather (fun r -> r.lr_warm)) in
  let cold_all = Array.of_list (gather (fun r -> r.lr_cold)) in
  let sleep_all = Array.of_list (gather (fun r -> r.lr_sleep)) in
  let err_totals = merge_counts (List.map (fun r -> r.lr_errs) results) in
  Printf.printf
    "open loop: %d clients, %.0f requests/s offered for %.1f s: %d sent, %d completed, %d capped, %d unanswered\n"
    clients offered phase_b_s sent completed dropped unanswered;
  Printf.printf "  warm  p50/p90/p99: %.3f / %.3f / %.3f ms (%d)\n" (pct warm_all 50.)
    (pct warm_all 90.) (pct warm_all 99.) (Array.length warm_all);
  if Array.length cold_all > 0 then
    Printf.printf "  cold  p50/p90/p99: %.2f / %.2f / %.2f ms (%d)\n" (pct cold_all 50.)
      (pct cold_all 90.) (pct cold_all 99.) (Array.length cold_all);
  List.iter (fun (code, n) -> Printf.printf "  %-18s %d\n" code n) err_totals;
  (* Scrape server-side tier/shard/cache accounting. *)
  let stats_resp = Client.request_line c "{\"cmd\":\"stats\"}" in
  let stats_json = match Json.parse stats_resp with Ok j -> j | Error _ -> Json.Null in
  let member path =
    List.fold_left (fun acc name -> Option.bind acc (Json.member name)) (Some stats_json) path
  in
  let stat_int path = Option.value ~default:0 (Option.bind (member path) Json.to_int) in
  let shard_requests =
    match member [ "result"; "shards"; "requests" ] with
    | Some (Json.List l) -> List.filter_map Json.to_int l
    | _ -> []
  in
  let tier_counts =
    List.map
      (fun t -> (t, stat_int [ "result"; "tiers"; t ]))
      [ "ok"; "throttled"; "shed"; "overloaded" ]
  in
  let hits = stat_int [ "result"; "cache"; "hits" ]
  and misses = stat_int [ "result"; "cache"; "misses" ] in
  Printf.printf "cache: %d hits / %d misses; tiers:%s; shard requests:%s\n" hits misses
    (String.concat "" (List.map (fun (t, n) -> Printf.sprintf " %s=%d" t n) tier_counts))
    (String.concat "" (List.map (Printf.sprintf " %d") shard_requests));
  ignore (Client.request_line c "{\"cmd\":\"shutdown\"}");
  Client.close c;
  Domain.join server;
  (* Gates. *)
  let cores = cores () and gate_enforced = gate_enforced () in
  let min_speedup =
    List.fold_left (fun acc (_, _, _, s) -> Float.min acc s) infinity latency_rows
  in
  let p99_factor = 100. and p99_floor_ms = 25. in
  let warm_p50 = pct warm_all 50. and warm_p99 = pct warm_all 99. in
  let p99_ok =
    Array.length warm_all = 0
    || not (warm_p99 > p99_factor *. warm_p50 && warm_p99 > p99_floor_ms)
  in
  let shard_balance =
    let total = List.fold_left ( + ) 0 shard_requests in
    if total = 0 || shard_requests = [] then None
    else
      let mean = float_of_int total /. float_of_int (List.length shard_requests) in
      Some (float_of_int (List.fold_left min max_int shard_requests) /. mean)
  in
  let starved = match shard_balance with Some b -> b < 0.1 | None -> false in
  let json =
    Json.Obj
      [
        ("vectors", Json.Int !vectors);
        ("seed", Json.Int seed);
        ("domains", Json.Int cfg.Server.domains);
        ("shards", Json.Int shards);
        ("cores", Json.Int cores);
        ("gate_enforced", Json.Bool gate_enforced);
        ( "latency",
          Json.List
            (List.map
               (fun (id, cold, warm, s) ->
                 Json.Obj
                   [
                     ("bench", Json.String id);
                     ("cold_ms", Json.Float cold);
                     ("warm_p50_ms", Json.Float warm);
                     ("speedup", Json.Float s);
                   ])
               latency_rows) );
        ("min_warm_speedup", Json.Float min_speedup);
        ( "import",
          Json.Obj
            [
              ("texts", Json.Int (Array.length import_cold));
              ("vectors", Json.Int import_vectors);
              ( "layers",
                Json.List
                  (List.map
                     (fun (name, ms, words) ->
                       Json.Obj
                         [
                           ("layer", Json.String name);
                           ("ms", Json.Float ms);
                           ("minor_words", Json.Float words);
                         ])
                     layers) );
              ( "layers_total_ms",
                Json.Float (List.fold_left (fun acc (_, ms, _) -> acc +. ms) 0. layers) );
              ( "cold_ms",
                Json.Obj
                  [
                    ("p50", Json.Float (pct import_cold 50.));
                    ("p90", Json.Float (pct import_cold 90.));
                    ("max", Json.Float (Array.fold_left Float.max 0. import_cold));
                  ] );
            ] );
        ("concurrent_clients", Json.Int drivers);
        ("warm_requests_per_s", Json.Float rps);
        ( "closed_loop",
          Json.Obj
            [
              ("connections", Json.Int drivers);
              ("pipeline_depth", Json.Int depth);
              ("duration_s", Json.Float wall);
              ("completed", Json.Int total_a);
              ("warm_requests_per_s", Json.Float rps);
            ] );
        ( "load",
          Json.Obj
            [
              ("clients", Json.Int clients);
              ("drivers", Json.Int drivers);
              ("offered_rps", Json.Float offered);
              ("duration_s", Json.Float phase_b_s);
              ("sent", Json.Int sent);
              ("completed", Json.Int completed);
              ("capped", Json.Int dropped);
              ("unanswered", Json.Int unanswered);
              ("errors", counts_obj err_totals);
              ("warm_ms", pct_obj warm_all);
              ("cold_ms", pct_obj cold_all);
              ("sleep_ms", pct_obj sleep_all);
            ] );
        ("tiers", counts_obj tier_counts);
        ("shard_requests", Json.List (List.map (fun n -> Json.Int n) shard_requests));
        ( "shard_balance",
          match shard_balance with Some b -> Json.Float b | None -> Json.Null );
        ( "p99_gate",
          Json.Obj
            [
              ("enforced", Json.Bool gate_enforced);
              ("factor", Json.Float p99_factor);
              ("floor_ms", Json.Float p99_floor_ms);
              ("warm_p50_ms", Json.Float warm_p50);
              ("warm_p99_ms", Json.Float warm_p99);
              ("passed", Json.Bool p99_ok);
            ] );
        ("cache_hits", Json.Int hits);
        ("cache_misses", Json.Int misses);
      ]
  in
  write_json "BENCH_serve.json" json
    ~note:(Printf.sprintf " (min warm speedup %.0fx, warm p99 %.3f ms)" min_speedup warm_p99);
  if min_speedup < 10. then fail "warm path less than 10x faster than cold";
  if gate_enforced && not p99_ok then
    fail
      (Printf.sprintf "warm p99 %.3f ms exceeds %.0fx warm p50 %.3f ms (floor %.0f ms)" warm_p99
         p99_factor warm_p50 p99_floor_ms);
  if gate_enforced && starved then
    fail
      (Printf.sprintf "shard starvation (balance %.3f < 0.1)"
         (Option.value ~default:0. shard_balance));
  if not gate_enforced then
    Printf.printf "(single-core machine: p99/starvation gates recorded but not enforced)\n"

(* Chaos: a real supervised fleet (bin/ee_fleet spawned fork+exec — safe
   with live domains, unlike a bare fork) takes closed-loop load through
   the failover client while the conductor SIGKILLs children mid-run,
   then a tier entry is truncated and the restarted child must quarantine
   it instead of serving it.  Correctness gates (zero wrong replies, zero
   unaccounted requests, quarantine observed, clean drain) are always
   enforced; the availability floor and recovery bound only on >=2-core
   machines, like the other serve gates.  Merges a "chaos" section into
   BENCH_serve.json. *)

type chaos_load = {
  ch_sent : int;
  ch_ok : int;
  ch_wrong : (string * string) list;  (* bench, offending response line *)
  ch_errs : (string * int) list;  (* structured error code -> count *)
  ch_failed : (string * int) list;  (* Fleet_client.Failed kind -> count *)
  ch_lat : float list;
}

type chaos_outcome =
  | Chaos_load of chaos_load
  | Chaos_kills of (int * int * float) list  (* slot, old pid, recovery_s (nan = never) *)

(* SIGKILL [pid], then wait up to 10 s for a new pid to answer [pid_of]:
   the seconds that took, nan if none did. *)
let restart_s ~pid_of pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  let tk = Unix.gettimeofday () in
  let rec poll () =
    if Unix.gettimeofday () > tk +. 10. then Float.nan
    else
      match pid_of () with
      | Some pid' when pid' <> pid -> Unix.gettimeofday () -. tk
      | _ ->
          Unix.sleepf 0.05;
          poll ()
  in
  poll ()

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let print_chaos () =
  section "Chaos: supervised ee_fleet under SIGKILL + tier-corruption load";
  (* A write to a killed child is EPIPE for the failover client, not a kill. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let module Client = Ee_serve.Client in
  let module Fleet_client = Ee_serve.Fleet_client in
  let exe =
    match Sys.getenv_opt "EE_FLEET_EXE" with
    | Some p -> p
    | None ->
        let guess =
          Filename.concat (Filename.dirname Sys.executable_name) "../bin/ee_fleet.exe"
        in
        if Sys.file_exists guess then guess else "ee_fleet"
  in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ee_chaos_%d" (Unix.getpid ()))
  in
  let mkdir d = try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> () in
  mkdir dir;
  (* [fail] exits, so the directory (tier entries, sockets, fleet.log) goes
     at exit: after a pass, a failed gate or an exception alike. *)
  at_exit (fun () -> if Sys.file_exists dir then remove_tree dir);
  let tier = Filename.concat dir "tier" in
  mkdir tier;
  let prefix = Filename.concat dir "s" in
  let ep slot : Ee_serve.Server.address = `Unix (Printf.sprintf "%s.%d" prefix slot) in
  let fleet_log = Filename.concat dir "fleet.log" in
  let log_fd = Unix.openfile fleet_log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let backoff_base = 0.3 in
  let fleet_pid =
    Unix.create_process exe
      [|
        exe; "-n"; "2"; "--socket"; prefix; "--tier"; tier; "--jobs"; "1";
        "--backoff-base"; string_of_float backoff_base; "--probe-interval"; "0.5";
        "--grace"; "5";
      |]
      Unix.stdin Unix.stdout log_fd
  in
  Unix.close log_fd;
  Printf.printf "fleet: %s -n 2 --tier %s (supervisor pid %d, log %s)\n" exe tier
    fleet_pid fleet_log;
  (* SIGTERM the supervisor and wait for it: [true] on a clean exit within
     15 s.  Runs once; a run that ends before its drain drains at exit. *)
  let drained = ref None in
  let drain () =
    match !drained with
    | Some clean -> clean
    | None ->
        (try Unix.kill fleet_pid Sys.sigterm with Unix.Unix_error _ -> ());
        let deadline = Unix.gettimeofday () +. 15. in
        let rec wait () =
          match Unix.waitpid [ Unix.WNOHANG ] fleet_pid with
          | 0, _ ->
              if Unix.gettimeofday () > deadline then false
              else begin
                Unix.sleepf 0.05;
                wait ()
              end
          | _, Unix.WEXITED 0 -> true
          | _, _ -> false
          | exception Unix.Unix_error _ -> false
        in
        let clean = wait () in
        drained := Some clean;
        clean
  in
  at_exit (fun () -> ignore (drain ()));
  let health_of addr =
    match Client.connect ~recv_timeout_s:2. addr with
    | exception _ -> None
    | c ->
        let r =
          match Client.request_line c "{\"cmd\":\"health\"}" with
          | line -> Option.bind (ok_reply line) (Json.member "result")
          | exception _ -> None
        in
        Client.close c;
        r
  in
  let pid_of addr = Option.bind (health_of addr) (fun h -> Option.bind (Json.member "pid" h) Json.to_int) in
  let quarantined_of addr =
    Option.bind (health_of addr) (fun h ->
        Option.bind (Json.member "cache" h) (fun c ->
            Option.bind (Json.member "quarantined" c) Json.to_int))
  in
  (* Wait for both children to come up. *)
  List.iter
    (fun slot ->
      let c = Client.connect ~retries:100 ~recv_timeout_s:5. (ep slot) in
      ignore (Client.request_line c "{\"cmd\":\"ping\"}");
      Client.close c)
    [ 0; 1 ];
  let benches = [ "b01"; "b02"; "b03" ] in
  let result_of line =
    Option.map Json.to_string (Option.bind (ok_reply line) (Json.member "result"))
  in
  (* Warm-up: compute the expected payload per bench on child 0 and check
     child 1 independently agrees (synthesis is deterministic; child 1
     may serve it from the shared tier child 0 just wrote). *)
  let expected =
    let c0 = Client.connect ~retries:10 ~recv_timeout_s:120. (ep 0) in
    let c1 = Client.connect ~retries:10 ~recv_timeout_s:120. (ep 1) in
    let exp =
      List.map
        (fun id ->
          let r0 = result_of (Client.request_line c0 (synth_line id)) in
          let r1 = result_of (Client.request_line c1 (synth_line id)) in
          match (r0, r1) with
          | Some a, Some b when a = b -> (id, a)
          | Some a, Some b -> fail (Printf.sprintf "children disagree on %s:\n  %s\n  %s" id a b)
          | _ -> fail (Printf.sprintf "warm-up request for %s failed" id))
        benches
    in
    Client.close c0;
    Client.close c1;
    exp
  in
  Printf.printf "warm-up: %d benches agree across both children\n" (List.length expected);
  let load_s = if !vectors <= 25 then 6.0 else 10.0 in
  let t0 = Unix.gettimeofday () in
  let t_end = t0 +. load_s in
  let sleep_until t =
    let d = t -. Unix.gettimeofday () in
    if d > 0. then Unix.sleepf d
  in
  (* The conductor: SIGKILL one child at 25% and the other at 55% of the
     load window, then measure how long until a *new* pid answers health
     on that endpoint. *)
  let conduct () =
    List.map
      (fun (frac, slot) ->
        sleep_until (t0 +. (frac *. load_s));
        match pid_of (ep slot) with
        | None -> (slot, -1, Float.nan)
        | Some pid -> (slot, pid, restart_s ~pid_of:(fun () -> pid_of (ep slot)) pid))
      [ (0.25, 0); (0.55, 1) ]
  in
  (* A load driver: closed-loop requests through the failover client.
     Every request ends as exactly one of ok / wrong / structured error /
     Failed — a silently dropped reply would show up as unaccounted. *)
  let run_load k =
    let policy =
      {
        Fleet_client.default_policy with
        Fleet_client.max_attempts = 8;
        base_backoff_s = 0.05;
        max_backoff_s = 0.5;
        recv_timeout_s = Some 10.;
      }
    in
    let fc = Fleet_client.create ~policy ~seed:(1000 + k) [ ep (k mod 2); ep ((k + 1) mod 2) ] in
    let sent = ref 0 and ok = ref 0 in
    let wrong = ref [] and lat = ref [] in
    let errs = Hashtbl.create 8 and failed = Hashtbl.create 8 in
    let i = ref 0 in
    while Unix.gettimeofday () < t_end do
      let bench = List.nth benches (!i mod 3) in
      incr i;
      incr sent;
      let t_s = Unix.gettimeofday () in
      (match Fleet_client.request_line fc (synth_line bench) with
      | line -> (
          lat := ((Unix.gettimeofday () -. t_s) *. 1000.) :: !lat;
          match result_of line with
          | Some r when r = List.assoc bench expected -> incr ok
          | Some _ -> wrong := (bench, line) :: !wrong
          | None -> (
              match extract_error line with
              | Some code -> bump errs code
              | None -> bump errs "unparseable"))
      | exception Fleet_client.Failed f ->
          bump failed
            (match f with
            | Fleet_client.Rejected { code; _ } -> "rejected:" ^ code
            | Fleet_client.Unavailable _ -> "unavailable")
      | exception e -> bump failed (Printexc.to_string e))
    done;
    Fleet_client.close fc;
    {
      ch_sent = !sent;
      ch_ok = !ok;
      ch_wrong = !wrong;
      ch_errs = count_list errs;
      ch_failed = count_list failed;
      ch_lat = !lat;
    }
  in
  let outcomes =
    Ee_util.Pool.run ~domains:3
      (fun k -> if k = 0 then Chaos_kills (conduct ()) else Chaos_load (run_load k))
      [ 0; 1; 2 ]
  in
  let kills =
    List.concat_map (function Chaos_kills l -> l | Chaos_load _ -> []) outcomes
  in
  let loads =
    List.filter_map (function Chaos_load l -> Some l | Chaos_kills _ -> None) outcomes
  in
  let sum f = List.fold_left (fun a l -> a + f l) 0 loads in
  let sent = sum (fun l -> l.ch_sent) and ok = sum (fun l -> l.ch_ok) in
  let wrong = List.concat_map (fun l -> l.ch_wrong) loads in
  let errs = merge_counts (List.map (fun l -> l.ch_errs) loads) in
  let failed = merge_counts (List.map (fun l -> l.ch_failed) loads) in
  let err_total = List.fold_left (fun a (_, n) -> a + n) 0 errs in
  let failed_total = List.fold_left (fun a (_, n) -> a + n) 0 failed in
  let unaccounted = sent - (ok + List.length wrong + err_total + failed_total) in
  let lat_all = Array.of_list (List.concat_map (fun l -> l.ch_lat) loads) in
  let availability =
    if sent = 0 then 0. else float_of_int ok /. float_of_int sent
  in
  Printf.printf
    "load: %.1f s, %d sent, %d ok (%.2f%% availability), %d wrong, %d errors, %d failed, %d unaccounted\n"
    load_s sent ok (100. *. availability) (List.length wrong) err_total failed_total
    unaccounted;
  Printf.printf "  latency p50/p99: %.2f / %.2f ms\n" (pct lat_all 50.) (pct lat_all 99.);
  List.iter (fun (c, n) -> Printf.printf "  error %-18s %d\n" c n) errs;
  List.iter (fun (c, n) -> Printf.printf "  failed %-17s %d\n" c n) failed;
  List.iter
    (fun (slot, pid, rec_s) ->
      if Float.is_nan rec_s then
        Printf.printf "kill: child %d (pid %d) NOT recovered within 10 s\n" slot pid
      else Printf.printf "kill: child %d (pid %d) recovered in %.2f s\n" slot pid rec_s)
    kills;
  (* Corruption: truncate one tier entry, SIGKILL child 0 so its restart
     preloads the tier, then the corrupt entry must be quarantined — and
     every bench must still answer correctly. *)
  let is_hex s =
    String.length s = 32
    && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s
  in
  let entries =
    Sys.readdir tier |> Array.to_list |> List.filter is_hex |> List.sort compare
  in
  let corrupted =
    match entries with
    | [] -> None
    | name :: _ ->
        let path = Filename.concat tier name in
        let size = (Unix.stat path).Unix.st_size in
        Unix.truncate path (size - (size / 3));
        Printf.printf "corruption: truncated %s (%d -> %d bytes)\n" name size
          (size - (size / 3));
        Some name
  in
  let recovery3 =
    match pid_of (ep 0) with
    | None -> Float.nan
    | Some pid -> restart_s ~pid_of:(fun () -> pid_of (ep 0)) pid
  in
  let quarantined = Option.value ~default:0 (quarantined_of (ep 0)) in
  let post_wrong =
    let c = Client.connect ~retries:10 ~recv_timeout_s:120. (ep 0) in
    let bad =
      List.filter
        (fun (id, exp) ->
          match result_of (Client.request_line c (synth_line id)) with
          | Some r -> r <> exp
          | None -> true)
        expected
    in
    Client.close c;
    List.map fst bad
  in
  Printf.printf
    "corruption: child 0 restarted in %.2f s, quarantined %d entries, %d wrong post-restart replies\n"
    recovery3 quarantined (List.length post_wrong);
  (* Drain the fleet and wait for a clean supervisor exit. *)
  let clean_exit = drain () in
  Printf.printf "drain: supervisor exit %s\n" (if clean_exit then "clean" else "DIRTY");
  let cores = cores () and gate_enforced = gate_enforced () in
  let availability_floor = 0.95 in
  let recovery_bound_s = 5.0 in
  let recoveries = List.map (fun (_, _, r) -> r) kills @ [ recovery3 ] in
  let recovered_ok =
    List.for_all (fun r -> not (Float.is_nan r) && r <= recovery_bound_s) recoveries
  in
  let kill_json =
    Json.List
      (List.map
         (fun (slot, pid, rec_s) ->
           Json.Obj
             [
               ("slot", Json.Int slot);
               ("pid", Json.Int pid);
               ( "recovery_s",
                 if Float.is_nan rec_s then Json.Null else Json.Float rec_s );
             ])
         kills)
  in
  let chaos_json =
    Json.Obj
      [
        ("children", Json.Int 2);
        ("vectors", Json.Int !vectors);
        ("seed", Json.Int seed);
        ("cores", Json.Int cores);
        ("gate_enforced", Json.Bool gate_enforced);
        ("load_s", Json.Float load_s);
        ("backoff_base_s", Json.Float backoff_base);
        ("sent", Json.Int sent);
        ("ok", Json.Int ok);
        ("wrong", Json.Int (List.length wrong));
        ("unaccounted", Json.Int unaccounted);
        ("errors", counts_obj errs);
        ("failed", counts_obj failed);
        ("availability", Json.Float availability);
        ("availability_floor", Json.Float availability_floor);
        ("latency_ms", pct_obj ~qs:[ 50.; 99. ] lat_all);
        ("kills", kill_json);
        ("recovery_bound_s", Json.Float recovery_bound_s);
        ( "corruption",
          Json.Obj
            [
              ( "entry",
                match corrupted with Some n -> Json.String n | None -> Json.Null );
              ( "restart_recovery_s",
                if Float.is_nan recovery3 then Json.Null else Json.Float recovery3 );
              ("quarantined", Json.Int quarantined);
              ("wrong_after_restart", Json.Int (List.length post_wrong));
            ] );
        ("clean_exit", Json.Bool clean_exit);
      ]
  in
  merge_section "BENCH_serve.json" "chaos" chaos_json ~note:" chaos section";
  List.iter
    (fun (bench, line) -> Printf.printf "  wrong reply for %s: %s\n" bench line)
    wrong;
  if wrong <> [] then fail "wrong replies under chaos load";
  if post_wrong <> [] then
    fail
      (Printf.sprintf "wrong replies after corruption restart (%s)"
         (String.concat ", " post_wrong));
  if unaccounted <> 0 then
    fail (Printf.sprintf "%d requests silently dropped" unaccounted);
  if corrupted <> None && quarantined < 1 then
    fail "corrupt tier entry was not quarantined";
  if not clean_exit then fail "supervisor did not drain cleanly on SIGTERM";
  if gate_enforced then begin
    if availability < availability_floor then
      fail
        (Printf.sprintf "availability %.4f below floor %.2f" availability
           availability_floor);
    if not recovered_ok then fail "a killed child did not recover within the bound"
  end
  else
    Printf.printf
      "(single-core machine: availability/recovery gates recorded but not enforced)\n"
