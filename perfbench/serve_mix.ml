(* serve_mix: the built [ee_synthd] with one worker and one shard, driven
   by one client thread over two closed-loop Unix-socket connections.
   Every block of 20 requests holds
   - 18 warm [synth] requests for b01-b13, cached during set-up and
     answered inline by the shard (the read path);
   - 1 cold [synth] of a small or medium ITC99 circuit with a fresh seed
     (full pipeline plus cache insert: the write path);
   - 1 cold [import] with a fresh seed, rotating through ASCII AIGER, binary
     AIGER and BLIF renderings of ITC99 netlists and corpus entries.
   Reads and writes share one shard, worker and cache, so a gain on one
   path that costs the other shows. *)

module Json = Ee_export.Json
module Engine = Ee_engine.Engine
module Itc99 = Ee_bench_circuits.Itc99
module Frontend = Ee_frontend.Frontend
module Tables = Ee_report.Tables
module Client = Ee_serve.Client

let warm_ids =
  [| "b01"; "b02"; "b03"; "b04"; "b05"; "b06"; "b07"; "b08"; "b09"; "b10"; "b11"; "b12"; "b13" |]

let cold_ids = [| "b01"; "b02"; "b03"; "b06"; "b08"; "b09"; "b10"; "b11"; "b13" |]
let import_ids = [ "b01"; "b02"; "b03"; "b06"; "b08"; "b09"; "b10" ]
let warm_vectors = 50
let cold_vectors = 100
let block = 20

(* Cold and import replies re-computed in-process by the oracles. *)
let checked_per_class = 6

(* Leading cold and import replies in the digest and [result_pct]: eight
   rotations of the cold circuits. *)
let digest_per_class = 72
let max_equiv_luts = 300
let reply_timeout_s = 60.

type cls = Warm | Cold | Import

let cls_name = function Warm -> "warm" | Cold -> "cold" | Import -> "import"

type request = {
  cls : cls;
  body : (string * Json.t) list;
  text : string option;  (** Import source. *)
}

(* ------------------------------------------------------------------ *)
(* Inputs                                                               *)

(* The import texts are the same for every seed, so that their cost does
   not vary with it; the seed picks where the rotation starts. *)
let import_items () =
  let nets =
    List.concat_map
      (fun id ->
        let nl = Ee_rtl.Techmap.run_rtl ((Itc99.find id).Itc99.build ()) in
        [
          Ee_frontend.Aiger.to_ascii nl;
          Ee_frontend.Aiger.to_binary nl;
          Ee_export.Blif.to_blif ~model:id nl;
        ])
      import_ids
  in
  let corpus = Ee_frontend.Corpus.generate ~seed:2002 ~n:10 in
  Array.of_list (nets @ List.map (fun e -> e.Ee_frontend.Corpus.e_text) corpus)

let import_body text =
  if Frontend.detect text = Frontend.Aiger_binary then
    [ ("text", Json.String (Ee_util.Base64.encode text)); ("encoding", Json.String "base64") ]
  else [ ("text", Json.String text) ]

(* The request stream of one seed: block [k] is the same on every run. *)
type gen = {
  rng : Ee_util.Prng.t;
  items : string array;
  mutable fresh : int;
  mutable colds : int;
  mutable imports : int;
}

let synth_body id ~vectors ~seed =
  [
    ("cmd", Json.String "synth");
    ("bench", Json.String id);
    ("vectors", Json.Int vectors);
    ("seed", Json.Int seed);
  ]

let warm_request seed id =
  { cls = Warm; text = None; body = synth_body id ~vectors:warm_vectors ~seed }

let next_block seed g =
  let fresh () =
    g.fresh <- g.fresh + 1;
    seed + g.fresh
  in
  (* Cold circuits and import texts rotate, so any prefix of the stream
     covers them evenly whatever the seed. *)
  let bench = cold_ids.(g.colds mod Array.length cold_ids) in
  g.colds <- g.colds + 1;
  let cold =
    { cls = Cold; text = None; body = synth_body bench ~vectors:cold_vectors ~seed:(fresh ()) }
  in
  let text = g.items.(g.imports mod Array.length g.items) in
  g.imports <- g.imports + 1;
  let import =
    {
      cls = Import;
      text = Some text;
      body =
        (("cmd", Json.String "import") :: import_body text)
        @ [ ("vectors", Json.Int cold_vectors); ("seed", Json.Int (fresh ())) ];
    }
  in
  let pick a = a.(Ee_util.Prng.int g.rng (Array.length a)) in
  let reqs = Array.init block (fun _ -> warm_request seed (pick warm_ids)) in
  reqs.(Ee_util.Prng.int g.rng block) <- cold;
  let rec other () =
    let i = Ee_util.Prng.int g.rng block in
    if reqs.(i).cls = Cold then other () else i
  in
  reqs.(other ()) <- import;
  Array.to_list reqs

(* ------------------------------------------------------------------ *)
(* Daemon and connections                                               *)

type daemon = { pid : int; socket : string; conns : Client.t array }

(* Daemons spawned and not yet reaped; killed if the run dies early. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let daemon_exe () =
  let build_root = Filename.dirname (Filename.dirname Sys.executable_name) in
  Filename.concat (Filename.concat build_root "bin") "ee_synthd.exe"

let spawn socket =
  if Sys.file_exists socket then failwith ("stale daemon socket " ^ socket);
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let exe = daemon_exe () in
  let argv = [| exe; "--socket"; socket; "--jobs"; "1"; "--shards"; "1"; "--quiet" |] in
  let pid = Unix.create_process exe argv devnull devnull Unix.stderr in
  Unix.close devnull;
  live := pid :: !live;
  (* Up to 20 s for the daemon to start listening. *)
  let connect () =
    Client.connect ~retries:2000 ~retry_delay_s:0.01 ~recv_timeout_s:reply_timeout_s
      (`Unix socket)
  in
  { pid; socket; conns = Array.init 2 (fun _ -> connect ()) }

let call c fields =
  match Json.parse (Client.request_line c (Json.to_string (Json.Obj fields))) with
  | Ok j -> j
  | Error e -> failwith ("bad reply: " ^ e)

let path ks j = List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) ks
let str k j = Option.bind (Json.member k j) Json.to_string_opt
let num ks j = Option.bind (path ks j) Json.to_float
let int ks j = Option.bind (path ks j) Json.to_int

(* Stop the daemon with [shutdown]; it must exit with status 0 and remove
   its socket. *)
let shutdown tally d =
  let check what ok =
    Metrics.record tally ok;
    if not ok then Harness.fail "serve_mix: %s" what
  in
  let reply =
    try Some (call d.conns.(0) [ ("cmd", Json.String "shutdown") ])
    with Failure _ | Client.Timeout | End_of_file -> None
  in
  check "shutdown acknowledged" (Option.bind reply (str "status") = Some "ok");
  Array.iter Client.close d.conns;
  let deadline = Unix.gettimeofday () +. 20. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        reap ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid);
        None
    | _, st -> Some st
  in
  let status = reap () in
  live := List.filter (( <> ) d.pid) !live;
  check "daemon exits with status 0 after shutdown" (status = Some (Unix.WEXITED 0));
  check "no stale socket after shutdown" (not (Sys.file_exists d.socket))

(* ------------------------------------------------------------------ *)
(* The closed loop                                                      *)

(* Replies that were not ok, or not what the request asked for. *)
let rejected = ref 0

type sample = {
  s_cls : cls;
  latency_ms : float;
  elapsed_ms : float;  (** The daemon's own [elapsed_ms]. *)
  reply : Json.t;
  req : request;
}

(* A reply counts as served when it is [ok] and echoes its request's id; a
   refused ([overloaded], [shed], [throttled]) or errored reply does not.
   A [warm] request must also be a cache hit, or the read path was not
   measured. *)
let reply_ok ~id ~warm reply =
  str "status" reply = Some "ok"
  && int [ "id" ] reply = Some id
  && ((not warm) || Option.bind (Json.member "cached" reply) Json.to_bool = Some true)

(* Send [reqs] one at a time, alternating over the connections: each
   connection is a closed loop and at most one request is in flight.  Two
   requests in flight at once made run-to-run spreads several times wider
   on a two-core machine, where the client thread, the shard and the worker
   then compete for the cores.  Every reply is checked and recorded. *)
let run_block ?(warming = false) tally d next_id reqs on_reply =
  List.iter
    (fun r ->
      incr next_id;
      let id = !next_id in
      let c = d.conns.(id mod Array.length d.conns) in
      let t0 = Harness.now () in
      let request = Json.to_string (Json.Obj (("id", Json.Int id) :: r.body)) in
      let line = Client.request_line c request in
      let t = Harness.now () in
      let reply = match Json.parse line with Ok j -> j | Error _ -> Json.Null in
      Span.record ("request." ^ cls_name r.cls) ~start:t0 ~stop:t;
      let ok = reply_ok ~id ~warm:(r.cls = Warm && not warming) reply in
      Metrics.record tally ok;
      if ok then
        let elapsed_ms = Option.value ~default:0. (num [ "elapsed_ms" ] reply) in
        on_reply { s_cls = r.cls; latency_ms = (t -. t0) *. 1000.; elapsed_ms; reply; req = r }
      else begin
        incr rejected;
        Harness.fail "serve_mix: %s request %d: %s" (cls_name r.cls) id line
      end)
    reqs

(* ------------------------------------------------------------------ *)
(* Oracles                                                              *)

(* A cold synth row must equal an in-process [Engine.run] with the same
   spec. *)
let check_cold (s : sample) =
  let field k = List.assoc k s.req.body in
  let spec =
    Engine.default_spec
    |> Engine.with_vectors (Option.get (Json.to_int (field "vectors")))
    |> Engine.with_seed (Option.get (Json.to_int (field "seed")))
  in
  let bench = Itc99.find (Option.get (Json.to_string_opt (field "bench"))) in
  let row = (Engine.run ~spec bench).Engine.row in
  (* The wire carries floats to 12 significant digits. *)
  let f k want =
    match num [ "result"; k ] s.reply with
    | Some v -> Float.abs (v -. want) <= 1e-9 *. Float.max 1. (Float.abs want)
    | None -> false
  in
  int [ "result"; "pl_gates" ] s.reply = Some row.Tables.pl_gates
  && int [ "result"; "ee_gates" ] s.reply = Some row.Tables.ee_gates
  && f "delay_no_ee" row.Tables.delay_no_ee
  && f "delay_ee" row.Tables.delay_ee
  && f "area_increase_percent" row.Tables.area_increase
  && Option.bind (path [ "result"; "critical_cycle" ] s.reply) Json.to_string_opt
     = Some row.Tables.critical_cycle

(* The parsed and re-mapped netlists of an import must be equivalent, and
   the reply's mapped shape must match; [None] when too large to prove. *)
let check_import (s : sample) =
  let nl = Frontend.parse_exn (Option.get s.req.text) in
  let mapped = Ee_frontend.Remap.run nl in
  let luts = Ee_netlist.Netlist.lut_count mapped in
  if luts > max_equiv_luts then None
  else
    Some
      (Ee_netlist.Equiv.check nl mapped = Ee_netlist.Equiv.Equivalent
      && int [ "result"; "mapped"; "luts" ] s.reply = Some luts)

(* ------------------------------------------------------------------ *)

let by_cls c samples = List.filter (fun s -> s.s_cls = c) samples
let arr f samples = Array.of_list (List.map f samples)
let lat = arr (fun s -> s.latency_ms)

(* Percentile [p] of [f] over the replies of class [c]; 0 without any. *)
let class_pct f c p samples =
  match arr f (by_cls c samples) with [||] -> 0. | a -> Metrics.percentile a p

let run (cfg : Harness.config) =
  let seed = cfg.Harness.seed in
  let tally = Metrics.tally () in
  let socket =
    Filename.concat cfg.Harness.out_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ()))
  in
  let items = import_items () in
  let next_id = ref 0 in
  let warm_results = Hashtbl.create 16 in
  let result s = Json.to_string (Option.get (Json.member "result" s.reply)) in
  (* Set-up: spawn, connect, and fill the cache with the warm set, five
     times; the daemon of the last repetition serves the measured phase. *)
  let d, setup =
    Harness.setup ~repeats:5 ~between:(shutdown tally) (fun () ->
        let d = spawn socket in
        Array.iter
          (fun id ->
            run_block ~warming:true tally d next_id [ warm_request seed id ] (fun s ->
                Hashtbl.replace warm_results id (result s)))
          warm_ids;
        d)
  in
  let n_items = Array.length items in
  let g =
    {
      rng = Ee_util.Prng.create seed;
      items;
      fresh = 0;
      colds = 0;
      imports = ((seed mod n_items) + n_items) mod n_items;
    }
  in
  let samples = ref [] in
  let pass () = run_block tally d next_id (next_block seed g) (fun s -> samples := s :: !samples) in
  let passes, overhead =
    if cfg.Harness.trace then ([||], Some (snd (Harness.traced_measure cfg pass)))
    else (Harness.measure ~seconds:cfg.Harness.seconds pass, None)
  in
  let samples = List.rev !samples in
  let stats = call d.conns.(0) [ ("cmd", Json.String "stats") ] in
  List.iter
    (fun tier ->
      let n = Option.value ~default:(-1) (int [ "result"; "tiers"; tier ] stats) in
      Metrics.record tally (n = 0);
      if n <> 0 then
        Harness.fail "serve_mix: %d %s replies; the closed loop must stay below admission limits"
          n tier)
    [ "overloaded"; "shed"; "throttled" ];
  let rss = Metrics.peak_rss_mb (string_of_int d.pid) in
  shutdown tally d;
  (* Oracles on the leading replies of each compute class. *)
  let leading c k = List.filteri (fun i _ -> i < k) (by_cls c samples) in
  List.iter
    (fun s ->
      let ok = check_cold s in
      Metrics.record tally ok;
      if not ok then Harness.fail "serve_mix: cold synth differs from Engine.run: %s" (result s))
    (leading Cold checked_per_class);
  List.iter
    (fun s ->
      match check_import s with
      | None -> ()
      | Some ok ->
          Metrics.record tally ok;
          if not ok then Harness.fail "serve_mix: import not equivalent after remap: %s" (result s))
    (leading Import checked_per_class);
  List.iter
    (fun (c, tail) ->
      let l = lat (by_cls c samples) in
      if l <> [||] then
        Printf.printf "serve_mix: %-6s p50 %.4f ms  p%g %.4f ms  n=%d\n" (cls_name c)
          (Metrics.median l) tail (Metrics.percentile l tail) (Array.length l))
    [ (Warm, 99.); (Cold, 90.); (Import, 90.) ];
  let cold_rows = leading Cold digest_per_class in
  if List.length cold_rows < digest_per_class then
    Printf.printf "note: only %d cold replies; the digest and result_pct cover fewer than %d\n"
      (List.length cold_rows) digest_per_class;
  let gains =
    arr (fun s -> Option.value ~default:nan (num [ "result"; "delay_decrease_percent" ] s.reply))
      cold_rows
  in
  let digest =
    List.map (fun id -> Printf.sprintf "warm %s %s" id (Hashtbl.find warm_results id))
      (Array.to_list warm_ids)
    @ List.map
        (fun s -> Printf.sprintf "%s %s" (cls_name s.s_cls) (result s))
        (cold_rows @ leading Import digest_per_class)
  in
  let per_layer =
    match overhead with
    | None -> []
    | Some overhead ->
        let pct = class_pct (fun s -> s.latency_ms) in
        let elapsed c = class_pct (fun s -> s.elapsed_ms) c 50. samples in
        let wait = class_pct (fun s -> s.latency_ms -. s.elapsed_ms) in
        (* Frontend layers: replay the run's distinct import texts
           in-process. *)
        let texts = List.sort_uniq compare (List.filter_map (fun s -> s.req.text) samples) in
        Span.active := true;
        let luts =
          List.fold_left
            (fun acc t ->
              let nl = Span.with_ "parse" (fun () -> Frontend.parse_exn t) in
              let m = Span.with_ "remap" (fun () -> Ee_frontend.Remap.run nl) in
              acc + Ee_netlist.Netlist.lut_count m)
            0 texts
        in
        Span.active := false;
        let per_text x = x /. float_of_int (max 1 (List.length texts)) in
        let cache k = Option.value ~default:0. (num [ "result"; "cache"; k ] stats) in
        Metrics.
          [
            overhead;
            metric "parse.ms" "ms" (per_text (fst (Span.total "parse")));
            metric "remap.ms" "ms" (per_text (fst (Span.total "remap")));
            metric "remap.luts" "count" (per_text (float_of_int luts));
            metric "client.warm.p50_ms" "ms" (pct Warm 50. samples);
            metric "client.warm.p99_ms" "ms" (pct Warm 99. samples);
            metric "client.cold.p50_ms" "ms" (pct Cold 50. samples);
            metric "client.cold.p90_ms" "ms" (pct Cold 90. samples);
            metric "client.import.p50_ms" "ms" (pct Import 50. samples);
            metric "client.import.p90_ms" "ms" (pct Import 90. samples);
            metric "server.elapsed_ms.warm" "ms" (elapsed Warm);
            metric "server.elapsed_ms.cold" "ms" (elapsed Cold);
            metric "server.elapsed_ms.import" "ms" (elapsed Import);
            metric "server.wait_ms.warm.p50" "ms" (wait Warm 50. samples);
            metric "server.wait_ms.warm.p99" "ms" (wait Warm 99. samples);
            metric "server.wait_ms.cold.p50" "ms" (wait Cold 50. samples);
            metric "server.wait_ms.cold.p90" "ms" (wait Cold 90. samples);
            metric "server.wait_ms.import.p50" "ms" (wait Import 50. samples);
            metric "server.wait_ms.import.p90" "ms" (wait Import 90. samples);
            metric "server.rejected" "count" (float_of_int !rejected);
            metric "cache.hit_ratio" "fraction" (cache "hit_rate");
            metric "cache.entries" "count" (cache "entries");
            metric "cache.evictions" "count" (cache "evictions");
          ]
  in
  let end_to_end =
    if cfg.Harness.trace then []
    else begin
      let n = List.length samples in
      if not (Metrics.tail_ok n 99.) then
        Printf.printf "note: tail_ms is p99 of %d replies, fewer than the tail rule needs\n" n;
      Harness.timing_metrics ~setup ~passes ~ops:n ~op_ms:(lat samples) ~tail_p:99. ~rss
      @ [ Metrics.metric ~samples:(Array.length gains) "result_pct" "%" (Ee_util.Stats.mean gains) ]
    end
  in
  { Harness.tally; end_to_end; per_layer; digest }

(* Checks of the reply classification, run with the harness self-test. *)
let self_test () =
  let reply s = match Json.parse s with Ok j -> j | Error e -> failwith e in
  let cases =
    [
      ("ok reply served", true, false, {|{"status":"ok","id":7,"cached":false,"result":{}}|});
      ("warm hit served", true, true, {|{"status":"ok","id":7,"cached":true,"result":{}}|});
      ("warm miss fails", false, true, {|{"status":"ok","id":7,"cached":false,"result":{}}|});
      ("overloaded fails", false, false,
        {|{"status":"error","id":7,"error":"overloaded","retry_after_s":0.1}|});
      ("shed fails", false, false, {|{"status":"error","id":7,"error":"shed"}|});
      ("internal error fails", false, false, {|{"status":"error","id":7,"error":"internal"}|});
      ("wrong id fails", false, false, {|{"status":"ok","id":8,"cached":true,"result":{}}|});
      ("missing id fails", false, false, {|{"status":"ok","result":{}}|});
    ]
  in
  let t = Metrics.tally () in
  let fails =
    List.filter_map
      (fun (name, want, warm, s) ->
        let ok = reply_ok ~id:7 ~warm (reply s) in
        Metrics.record t ok;
        if ok = want then None else Some ("serve_mix reply: " ^ name))
      cases
  in
  if t.Metrics.attempted = 8 && t.Metrics.failed = 6 then fails
  else fails @ [ "serve_mix reply: refused and errored replies counted as failed" ]
