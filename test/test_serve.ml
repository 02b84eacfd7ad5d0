(* The synthesis service: JSON codec, wire protocol, and an end-to-end
   daemon exercise over a Unix socket — caching, admission control,
   deadlines, and clean shutdown. *)

module Json = Ee_export.Json
module Protocol = Ee_serve.Protocol
module Server = Ee_serve.Server
module Client = Ee_serve.Client
module Fleet_client = Ee_serve.Fleet_client
module Supervisor = Ee_serve.Supervisor
module Engine = Ee_engine.Engine

(* ---------------- Json codec ---------------- *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("null", Json.Null);
        ("t", Json.Bool true);
        ("n", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("s", Json.String "line1\nline2 \"quoted\" \\ tab\t");
        ("l", Json.List [ Json.Int 1; Json.Obj [ ("k", Json.String "v") ]; Json.Null ]);
        ("empty_obj", Json.Obj []);
        ("empty_list", Json.List []);
      ]
  in
  let s = Json.to_string doc in
  Alcotest.(check bool) "single line" false (String.contains s '\n');
  (match Json.parse s with
  | Ok parsed -> Alcotest.(check bool) "roundtrip" true (parsed = doc)
  | Error e -> Alcotest.fail e);
  (* Numbers: integral stays Int, fractional becomes Float. *)
  (match Json.parse "{\"a\":3,\"b\":3.25,\"c\":-0.5e1}" with
  | Ok j ->
      Alcotest.(check (option int)) "int" (Some 3) (Option.bind (Json.member "a" j) Json.to_int);
      Alcotest.(check bool) "float" true (Json.member "b" j = Some (Json.Float 3.25));
      Alcotest.(check bool) "exponent" true (Json.member "c" j = Some (Json.Float (-5.)))
  | Error e -> Alcotest.fail e);
  (* Unicode escapes decode to UTF-8. *)
  (match Json.parse "\"a\\u00e9b\"" with
  | Ok (Json.String s) -> Alcotest.(check string) "utf8" "a\xc3\xa9b" s
  | _ -> Alcotest.fail "unicode escape")

let test_json_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "should reject %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{\"a\" 1}"; "nan" ]

let test_json_raw_compact () =
  let multi = "{\n  \"x\": 1\n}" in
  let s = Json.to_string (Json.Obj [ ("payload", Json.raw_compact multi) ]) in
  Alcotest.(check bool) "no newline" false (String.contains s '\n');
  match Json.parse s with
  | Ok j ->
      Alcotest.(check (option int)) "raw splice still parses" (Some 1)
        (Option.bind (Option.bind (Json.member "payload" j) (Json.member "x")) Json.to_int)
  | Error e -> Alcotest.fail e

(* ---------------- Protocol ---------------- *)

let test_protocol_roundtrip () =
  let spec =
    Engine.default_spec |> Engine.with_vectors 17 |> Engine.with_threshold 50.
    |> Engine.with_selection Engine.Search |> Engine.with_lut_k 6
  in
  let roundtrip req =
    let env = { Protocol.id = Json.Int 9; deadline_s = Some 2.5; req } in
    match Protocol.parse_line (Json.to_string (Protocol.envelope_to_json env)) with
    | Error e -> Alcotest.fail e
    | Ok env' ->
        Alcotest.(check bool) "id survives" true (env'.Protocol.id = Json.Int 9);
        Alcotest.(check (option (float 1e-9))) "deadline survives" (Some 2.5)
          env'.Protocol.deadline_s;
        env'.Protocol.req
  in
  (match roundtrip (Protocol.Synth { bench = "b04"; spec; search = true }) with
  | Protocol.Synth { bench = "b04"; spec = s; search } ->
      Alcotest.(check string) "spec survives" (Engine.spec_fingerprint spec)
        (Engine.spec_fingerprint s);
      Alcotest.(check bool) "search flag survives" true search
  | _ -> Alcotest.fail "request shape changed");
  let text = ".model m\n.inputs a\n.outputs a\n.end\n" in
  match
    roundtrip
      (Protocol.Import
         { text; format = Some Ee_frontend.Frontend.Blif; remap = false; search = true; spec })
  with
  | Protocol.Import { text = t; format; remap; search; spec = s } ->
      Alcotest.(check string) "import text survives" text t;
      Alcotest.(check bool) "import format survives" true
        (format = Some Ee_frontend.Frontend.Blif);
      Alcotest.(check bool) "import remap survives" false remap;
      Alcotest.(check bool) "import search flag survives" true search;
      Alcotest.(check string) "import spec survives" (Engine.spec_fingerprint spec)
        (Engine.spec_fingerprint s)
  | _ -> Alcotest.fail "request shape changed"

let test_protocol_rejects () =
  List.iter
    (fun line ->
      match Protocol.parse_line line with
      | Ok _ -> Alcotest.failf "should reject %s" line
      | Error _ -> ())
    [
      "not json";
      "{}";
      "{\"cmd\":\"frobnicate\"}";
      "{\"cmd\":\"synth\"}";
      "{\"cmd\":\"synth\",\"bench\":\"b01\",\"blif\":\"x\"}";
      "{\"cmd\":\"synth\",\"bench\":\"b01\",\"vectors\":0}";
      "{\"cmd\":\"synth\",\"bench\":\"b01\",\"deadline_s\":0}";
      "{\"cmd\":\"synth\",\"bench\":\"b01\",\"selection\":\"best\"}";
      "{\"cmd\":\"synth\",\"bench\":\"b01\",\"lut_k\":3}";
      "{\"cmd\":\"synth\",\"bench\":\"b01\",\"lut_k\":9}";
      "{\"cmd\":\"synth\",\"bench\":\"b01\",\"search\":\"yes\"}";
      "{\"cmd\":\"synth\",\"blif\":\".model m\\n.end\\n\"}";
      "{\"cmd\":\"import\",\"text\":\".model m\\n.end\\n\",\"search\":1}";
      "{\"cmd\":\"perf\"}";
    ];
  (* Inline netlists go through [import]: the rejection says so. *)
  match Protocol.parse_line "{\"cmd\":\"synth\",\"blif\":\".model m\\n.end\\n\"}" with
  | Error m ->
      Alcotest.(check bool) "synth {blif} points at import" true
        (Astring_contains.contains m "import")
  | Ok _ -> Alcotest.fail "synth {blif} accepted"

(* The spec knobs that could make one request unbounded or its report
   meaningless: [vectors] beyond 4000, non-finite or non-positive
   [gate_delay], non-finite or negative [ee_overhead].  JSON numbers
   cannot spell NaN, so the NaN checks on [threshold] and [min_coverage]
   only show here as infinities still being accepted. *)
let test_protocol_spec_bounds () =
  let line field v =
    Printf.sprintf "{\"cmd\":\"synth\",\"bench\":\"b01\",\"%s\":%s}" field v
  in
  List.iter
    (fun (field, bad, good) ->
      List.iter
        (fun v ->
          match Protocol.parse_line (line field v) with
          | Ok _ -> Alcotest.failf "accepted %s = %s" field v
          | Error m ->
              Alcotest.(check bool) (field ^ ": the error names the field") true
                (Astring_contains.contains m field))
        bad;
      List.iter
        (fun v ->
          match Protocol.parse_line (line field v) with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "rejected %s = %s: %s" field v e)
        good)
    [
      ("vectors", [ "0"; "4001"; "1000000000" ], [ "1"; "4000" ]);
      ("gate_delay", [ "0"; "-1"; "1e999"; "-1e999" ], [ "0.5"; "2" ]);
      ("ee_overhead", [ "-5"; "-0.25"; "1e999"; "-1e999" ], [ "0"; "0.25" ]);
      ("threshold", [], [ "1e999"; "-1e999"; "50" ]);
      ("min_coverage", [], [ "1e999"; "0" ]);
    ]

(* [waves] must lie in 1..2400 for both requests that take it. *)
let test_protocol_waves_bounds () =
  List.iter
    (fun cmd ->
      let line w = Printf.sprintf "{\"cmd\":\"%s\",\"bench\":\"b01\",\"waves\":%d}" cmd w in
      List.iter
        (fun w ->
          match Protocol.parse_line (line w) with
          | Ok _ -> Alcotest.failf "%s accepted waves = %d" cmd w
          | Error m ->
              Alcotest.(check bool) (cmd ^ ": the error names the field") true
                (Astring_contains.contains m "waves"))
        [ 0; -3; 2401; 1_000_000_000 ];
      List.iter
        (fun w ->
          match Protocol.parse_line (line w) with
          | Ok { Protocol.req = Protocol.Perf { waves; _ } | Protocol.Faults { waves; _ }; _ } ->
              Alcotest.(check int) (cmd ^ ": waves kept") w waves
          | Ok _ -> Alcotest.fail "request shape changed"
          | Error e -> Alcotest.failf "%s rejected waves = %d: %s" cmd w e)
        [ 1; 2400 ])
    [ "perf"; "faults" ]

(* ---------------- End to end ---------------- *)

let sock_counter = ref 0

let with_server ?(shards = 1) ?(domains = 1) ?(max_pending = 8) ?backlog
    ?default_deadline_s f =
  incr sock_counter;
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ee_serve_test_%d_%d.sock" (Unix.getpid ()) !sock_counter)
  in
  let stop = Atomic.make false in
  let cfg =
    {
      Server.default_config with
      Server.address = `Unix sock;
      shards;
      domains;
      max_pending;
      backlog;
      default_deadline_s;
      shutdown_grace_s = 1.;
    }
  in
  let srv = Domain.spawn (fun () -> Server.serve ~stop cfg) in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join srv)
    (fun () -> f sock)

let send sock line =
  let c = Client.connect ~retries:100 (`Unix sock) in
  let resp = Client.request_line c line in
  Client.close c;
  match Json.parse resp with Ok j -> j | Error e -> Alcotest.failf "bad response %S: %s" resp e

let get j path =
  List.fold_left (fun acc name -> Option.bind acc (Json.member name)) (Some j) path

let check_status j expected =
  Alcotest.(check (option string))
    ("status " ^ expected)
    (Some expected)
    (Option.bind (Json.member "status" j) Json.to_string_opt)

let check_error j code =
  check_status j "error";
  Alcotest.(check (option string)) ("error code " ^ code) (Some code)
    (Option.bind (Json.member "error" j) Json.to_string_opt)

let test_e2e_synth_and_cache () =
  with_server (fun sock ->
      let line = "{\"cmd\":\"synth\",\"bench\":\"b01\",\"vectors\":5,\"id\":\"req-1\"}" in
      let r1 = send sock line in
      check_status r1 "ok";
      Alcotest.(check (option string)) "id echoed" (Some "req-1")
        (Option.bind (Json.member "id" r1) Json.to_string_opt);
      Alcotest.(check (option bool)) "first is cold" (Some false)
        (Option.bind (Json.member "cached" r1) Json.to_bool);
      Alcotest.(check (option string)) "row id" (Some "b01")
        (Option.bind (get r1 [ "result"; "id" ]) Json.to_string_opt);
      Alcotest.(check bool) "has ee gate count" true
        (Option.bind (get r1 [ "result"; "ee_gates" ]) Json.to_int <> None);
      (* Identical request on a fresh connection: served from the cache. *)
      let r2 = send sock line in
      check_status r2 "ok";
      Alcotest.(check (option bool)) "second is cached" (Some true)
        (Option.bind (Json.member "cached" r2) Json.to_bool);
      Alcotest.(check bool) "identical payload" true
        (Json.member "result" r1 = Json.member "result" r2);
      (* A different spec is a different key. *)
      let r3 = send sock "{\"cmd\":\"synth\",\"bench\":\"b01\",\"vectors\":6}" in
      Alcotest.(check (option bool)) "changed spec misses" (Some false)
        (Option.bind (Json.member "cached" r3) Json.to_bool);
      (* Stats reflect the traffic. *)
      let s = send sock "{\"cmd\":\"stats\"}" in
      check_status s "ok";
      Alcotest.(check bool) "cache hits counted" true
        (match Option.bind (get s [ "result"; "cache"; "hits" ]) Json.to_int with
        | Some h -> h >= 1
        | None -> false);
      Alcotest.(check bool) "synth latencies recorded" true
        (get s [ "result"; "commands"; "synth"; "latency_ms"; "p50" ] <> None))

let test_e2e_search_section () =
  with_server (fun sock ->
      (* A search-enabled synth carries the extra section and caches under
         its own key, distinct from the same spec without "search". *)
      let line =
        "{\"cmd\":\"synth\",\"bench\":\"b01\",\"vectors\":5,\"selection\":\"search\",\"search\":true,\"lut_k\":5}"
      in
      let r1 = send sock line in
      check_status r1 "ok";
      Alcotest.(check (option bool)) "first is cold" (Some false)
        (Option.bind (Json.member "cached" r1) Json.to_bool);
      Alcotest.(check (option string)) "selection echoed" (Some "search")
        (Option.bind (get r1 [ "result"; "selection" ]) Json.to_string_opt);
      let lam_mcr = Option.bind (get r1 [ "result"; "search"; "lambda_mcr" ]) Json.to_float in
      let lam_search =
        Option.bind (get r1 [ "result"; "search"; "lambda_search" ]) Json.to_float
      in
      (match (lam_mcr, lam_search) with
      | Some m, Some s ->
          Alcotest.(check bool) "search lambda never worse than mcr" true (s <= m)
      | _ -> Alcotest.fail "missing search lambda table");
      Alcotest.(check (option int)) "wide summary at lut_k" (Some 5)
        (Option.bind (get r1 [ "result"; "search"; "wide"; "lut_k" ]) Json.to_int);
      let r2 = send sock line in
      Alcotest.(check (option bool)) "repeat is cached" (Some true)
        (Option.bind (Json.member "cached" r2) Json.to_bool);
      Alcotest.(check bool) "identical payload" true
        (Json.member "result" r1 = Json.member "result" r2);
      (* Same spec without the search flag: distinct cache key, no section. *)
      let r3 =
        send sock
          "{\"cmd\":\"synth\",\"bench\":\"b01\",\"vectors\":5,\"selection\":\"search\",\"lut_k\":5}"
      in
      Alcotest.(check (option bool)) "flagless request misses" (Some false)
        (Option.bind (Json.member "cached" r3) Json.to_bool);
      Alcotest.(check bool) "no section without the flag" true
        (get r3 [ "result"; "search" ] = None))

(* An [import] of BLIF text, measured as it stands (no remap). *)
let import_blif ?(extra = []) text =
  Json.to_string
    (Json.Obj
       ([
          ("cmd", Json.String "import");
          ("text", Json.String text);
          ("format", Json.String "blif");
          ("remap", Json.Bool false);
          ("vectors", Json.Int 4);
        ]
       @ extra))

let half_adder =
  ".model ha\n.inputs a b\n.outputs s c\n.names a b s\n10 1\n01 1\n.names a b c\n11 1\n.end\n"

let test_e2e_inline_blif () =
  with_server (fun sock ->
      let r = send sock (import_blif half_adder) in
      check_status r "ok";
      Alcotest.(check (option string)) "netlist row" (Some "netlist")
        (Option.bind (get r [ "result"; "synth"; "id" ]) Json.to_string_opt);
      Alcotest.(check (option bool)) "measured as it stands" (Some false)
        (Option.bind (get r [ "result"; "remapped" ]) Json.to_bool);
      (* Same netlist again: content-addressed, so cached. *)
      let r2 = send sock (import_blif half_adder) in
      Alcotest.(check (option bool)) "inline blif cached by content" (Some true)
        (Option.bind (Json.member "cached" r2) Json.to_bool);
      (* Malformed BLIF is the client's fault, not an internal error. *)
      check_error (send sock (import_blif "garbage")) "bad_request";
      (* synth takes no netlist text; its rejection points at import. *)
      let old =
        send sock
          (Json.to_string
             (Json.Obj [ ("cmd", Json.String "synth"); ("blif", Json.String half_adder) ]))
      in
      check_error old "bad_request";
      Alcotest.(check bool) "synth {blif} rejection names import" true
        (match Option.bind (Json.member "message" old) Json.to_string_opt with
        | Some m -> Astring_contains.contains m "import"
        | None -> false))

let test_e2e_import_blif_reader () =
  (* import reads full-dialect BLIF as it stands: a 5-input .names and a
     benchmark's canonical BLIF are measured, and an unsupported .gate is a
     bad_request naming its line. *)
  let wide =
    ".model ext\n.inputs a b c d e\n.outputs y\n.names a b c d e y\n11--- 1\n--111 1\n.end\n"
  in
  let b03 =
    let b = Ee_bench_circuits.Itc99.find "b03" in
    Ee_export.Blif.to_blif ~model:"b03"
      (Ee_rtl.Techmap.run_rtl (b.Ee_bench_circuits.Itc99.build ()))
  in
  with_server (fun sock ->
      List.iter
        (fun (what, text) ->
          let r = send sock (import_blif text) in
          check_status r "ok";
          Alcotest.(check bool) (what ^ ": measured") true
            (Option.bind (get r [ "result"; "synth"; "pl_gates" ]) Json.to_int <> None))
        [ ("wide names", wide); ("b03", b03) ];
      let gate = send sock (import_blif ".model g\n.inputs a\n.outputs y\n.gate inv A=a Y=y\n.end\n") in
      check_error gate "bad_request";
      Alcotest.(check bool) ".gate error names the line" true
        (match Option.bind (Json.member "message" gate) Json.to_string_opt with
        | Some m -> Astring_contains.contains m "line"
        | None -> false))

let test_e2e_cached_kinds () =
  with_server (fun sock ->
      let cached j = Option.bind (Json.member "cached" j) Json.to_bool in
      let twice what line =
        let r1 = send sock line in
        check_status r1 "ok";
        Alcotest.(check (option bool)) (what ^ ": first is cold") (Some false) (cached r1);
        let r2 = send sock line in
        Alcotest.(check (option bool)) (what ^ ": repeat is cached") (Some true) (cached r2);
        Alcotest.(check bool) (what ^ ": identical payload") true
          (Json.member "result" r1 = Json.member "result" r2);
        r1
      in
      ignore (twice "perf" "{\"cmd\":\"perf\",\"bench\":\"b01\",\"waves\":8}");
      ignore (twice "faults" "{\"cmd\":\"faults\",\"bench\":\"b01\",\"waves\":4}");
      let plain = twice "import" (import_blif half_adder) in
      Alcotest.(check bool) "no search section without the flag" true
        (get plain [ "result"; "synth"; "search" ] = None);
      (* The search flag keys its own entry and adds the section. *)
      let searched =
        twice "import with search" (import_blif ~extra:[ ("search", Json.Bool true) ] half_adder)
      in
      Alcotest.(check bool) "search section under synth" true
        (Option.bind (get searched [ "result"; "synth"; "search"; "lambda_search" ]) Json.to_float
        <> None))

let test_e2e_request_bound () =
  with_server (fun sock ->
      let c = Client.connect ~retries:100 ~recv_timeout_s:30. (`Unix sock) in
      (* The bound is 8 MiB; the line's end comes 1 MiB after it. *)
      (try Client.send_line c (String.make (9 * 1024 * 1024) 'x')
       with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
      let r =
        match Json.parse (Client.recv_line c) with
        | Ok j -> j
        | Error e -> Alcotest.failf "bad response: %s" e
      in
      check_error r "bad_request";
      Alcotest.(check bool) "message names the bound" true
        (match Option.bind (Json.member "message" r) Json.to_string_opt with
        | Some m -> Astring_contains.contains m "request exceeds"
        | None -> false);
      Alcotest.(check bool) "connection closed" true
        (match Client.recv_line c with
        | _ -> false
        | exception (End_of_file | Unix.Unix_error _) -> true);
      Client.close c;
      check_status (send sock "{\"cmd\":\"ping\"}") "ok")

let test_e2e_waves_bad_request () =
  with_server (fun sock ->
      List.iter
        (fun line -> check_error (send sock line) "bad_request")
        [
          "{\"cmd\":\"faults\",\"bench\":\"b01\",\"waves\":0}";
          "{\"cmd\":\"faults\",\"bench\":\"b01\",\"waves\":-4}";
          "{\"cmd\":\"faults\",\"bench\":\"b01\",\"waves\":1000000000}";
          "{\"cmd\":\"perf\",\"bench\":\"b01\",\"waves\":0}";
          "{\"cmd\":\"perf\",\"bench\":\"b01\",\"waves\":1000000000}";
        ];
      check_status (send sock "{\"cmd\":\"faults\",\"bench\":\"b01\",\"waves\":1}") "ok")

let test_e2e_spec_bad_request () =
  with_server (fun sock ->
      List.iter
        (fun line -> check_error (send sock line) "bad_request")
        [
          "{\"cmd\":\"synth\",\"bench\":\"b01\",\"gate_delay\":1e999}";
          "{\"cmd\":\"synth\",\"bench\":\"b01\",\"ee_overhead\":-5}";
          "{\"cmd\":\"synth\",\"bench\":\"b01\",\"vectors\":100000000}";
          "{\"cmd\":\"perf\",\"bench\":\"b01\",\"gate_delay\":0}";
        ];
      check_status (send sock "{\"cmd\":\"synth\",\"bench\":\"b01\",\"vectors\":5}") "ok")

(* A rejected line that is still a JSON object with a known "cmd" gets its
   "cmd" and "id" back, so a pipelining client can match the error to its
   request; any other line gets "?" and no id. *)
let test_e2e_bad_request_echo () =
  with_server (fun sock ->
      let echoed line =
        let r = send sock line in
        check_error r "bad_request";
        ( Option.bind (Json.member "cmd" r) Json.to_string_opt,
          Option.bind (Json.member "id" r) Json.to_int )
      in
      let check label expected line =
        Alcotest.(check (pair (option string) (option int))) label expected (echoed line)
      in
      check "bad waves" (Some "faults", Some 7)
        "{\"cmd\":\"faults\",\"bench\":\"b01\",\"waves\":0,\"id\":7}";
      check "synth {blif}" (Some "synth", Some 8)
        "{\"cmd\":\"synth\",\"blif\":\".model m\\n.end\\n\",\"id\":8}";
      check "bad waves without id" (Some "perf", None)
        "{\"cmd\":\"perf\",\"bench\":\"b01\",\"waves\":-1}";
      check "unknown cmd keeps its id" (Some "?", Some 9) "{\"cmd\":\"nope\",\"id\":9}";
      check "not JSON" (Some "?", None) "{\"cmd\":\"ping\",\"id\":10")

(* Raw framing: write [data] to a fresh connection in [chunk]-byte writes
   from a second domain while this one reads [replies] response lines, so
   neither side can block the other on a full socket buffer.  With
   [half_close] the writer then shuts its side down.  Also says whether the
   server closed the connection after those replies. *)
let chunked_exchange sock ~chunk ~replies ~half_close data =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let writer =
    Domain.spawn (fun () ->
        let b = Bytes.unsafe_of_string data in
        let off = ref 0 in
        try
          while !off < Bytes.length b do
            let len = min chunk (Bytes.length b - !off) in
            let k = ref 0 in
            while !k < len do
              k := !k + Unix.write fd b (!off + !k) (len - !k)
            done;
            off := !off + len
          done;
          if half_close then Unix.shutdown fd Unix.SHUTDOWN_SEND
        with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ())
  in
  let ic = Unix.in_channel_of_descr fd in
  let lines = List.init replies (fun _ -> input_line ic) in
  Domain.join writer;
  (* A server that closes with our input unread resets the connection. *)
  let closed =
    match input_line ic with _ -> false | exception (End_of_file | Sys_error _) -> true
  in
  Unix.close fd;
  (lines, closed)

let test_e2e_chunked_framing () =
  with_server (fun sock ->
      (* [send] retries until the server listens; the raw socket does not. *)
      check_status (send sock "{\"cmd\":\"ping\"}") "ok";
      (* A deep pipelined batch, CRLF and LF line ends and blank lines
         mixed, whose line boundaries fall anywhere in the 64 KiB reads. *)
      let n = 5000 in
      let batch =
        String.concat ""
          (List.init n (fun i ->
               Printf.sprintf "{\"cmd\":\"ping\",\"id\":%d}%s" i
                 (match i mod 3 with 0 -> "\n" | 1 -> "\r\n" | _ -> "\n\n")))
      in
      let replies, closed = chunked_exchange sock ~chunk:65536 ~replies:n ~half_close:true batch in
      let ids =
        List.map
          (fun line ->
            match Json.parse line with
            | Ok j -> (
                check_status j "ok";
                match Option.bind (Json.member "id" j) Json.to_int with
                | Some id -> id
                | None -> Alcotest.fail "response without id")
            | Error e -> Alcotest.failf "bad response: %s" e)
          replies
      in
      Alcotest.(check bool) "every reply, in send order" true (ids = List.init n Fun.id);
      Alcotest.(check bool) "closed after the client's end of input" true closed;
      (* One 9 MiB line in 64 KiB writes: refused once it passes the 8 MiB
         bound, then the connection is closed. *)
      let replies, closed =
        chunked_exchange sock ~chunk:65536 ~replies:1 ~half_close:false (String.make (9 * 1024 * 1024) 'x' ^ "\n")
      in
      (match Json.parse (List.hd replies) with
      | Ok r ->
          check_error r "bad_request";
          Alcotest.(check bool) "message names the bound" true
            (match Option.bind (Json.member "message" r) Json.to_string_opt with
            | Some m -> Astring_contains.contains m "request exceeds"
            | None -> false)
      | Error e -> Alcotest.failf "bad response: %s" e);
      Alcotest.(check bool) "server closed the connection" true closed)

(* A client that pipelines requests and never reads its replies must not
   stall its shard: on a one-shard server a second client's ping is
   answered within a second while the first one's replies sit unread.  A
   client that leaves more than the 8 MiB bound unread is disconnected. *)
let test_e2e_unread_replies () =
  with_server ~shards:1 (fun sock ->
      check_status (send sock "{\"cmd\":\"ping\"}") "ok";
      let flood n =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX sock);
        let data = Bytes.of_string (String.concat "" (List.init n (fun _ -> "{\"cmd\":\"ping\"}\n"))) in
        let off = ref 0 in
        (try
           while !off < Bytes.length data do
             off := !off + Unix.write fd data !off (Bytes.length data - !off)
           done
         with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
        fd
      in
      (* About 2 MiB of replies: far more than the socket buffers hold. *)
      let a = flood 30_000 in
      let t0 = Unix.gettimeofday () in
      let b = Client.connect ~retries:100 ~recv_timeout_s:1. (`Unix sock) in
      let reply = Client.request_line b "{\"cmd\":\"ping\"}" in
      let dt = Unix.gettimeofday () -. t0 in
      Client.close b;
      (match Json.parse reply with
      | Ok j -> check_status j "ok"
      | Error e -> Alcotest.failf "bad response: %s" e);
      Alcotest.(check bool) (Printf.sprintf "ping answered in %.3f s" dt) true (dt < 1.);
      Unix.close a;
      (* Over 12 MiB of replies: the server hangs up past the bound. *)
      let n = 170_000 in
      let a = flood n in
      let ic = Unix.in_channel_of_descr a in
      let rec drain k =
        match input_line ic with _ -> drain (k + 1) | exception (End_of_file | Sys_error _) -> k
      in
      let got = drain 0 in
      Unix.close a;
      Alcotest.(check bool) (Printf.sprintf "disconnected after %d of %d replies" got n) true (got < n);
      check_status (send sock "{\"cmd\":\"ping\"}") "ok")

(* A client that sends its batch, ends its input and only then starts
   reading still gets every reply: about 2 MiB of them, far more than the
   socket buffers hold, are still unwritten when the server reads the end
   of input, and the connection closes only once they are sent. *)
let test_e2e_half_close_flushes () =
  with_server (fun sock ->
      check_status (send sock "{\"cmd\":\"ping\"}") "ok";
      let n = 30_000 in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock);
      let data =
        Bytes.of_string
          (String.concat ""
             (List.init n (fun i -> Printf.sprintf "{\"cmd\":\"ping\",\"id\":%d}\n" i)))
      in
      let off = ref 0 in
      while !off < Bytes.length data do
        off := !off + Unix.write fd data !off (Bytes.length data - !off)
      done;
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      Unix.sleepf 0.2;
      let ic = Unix.in_channel_of_descr fd in
      let rec read_all acc =
        match input_line ic with
        | line -> read_all (line :: acc)
        | exception (End_of_file | Sys_error _) -> List.rev acc
      in
      let replies = read_all [] in
      Unix.close fd;
      Alcotest.(check int) "every reply before the close" n (List.length replies);
      let ids =
        List.map
          (fun line ->
            match Json.parse line with
            | Ok j -> (
                check_status j "ok";
                match Option.bind (Json.member "id" j) Json.to_int with
                | Some id -> id
                | None -> Alcotest.fail "response without id")
            | Error e -> Alcotest.failf "bad response: %s" e)
          replies
      in
      Alcotest.(check bool) "in send order" true (ids = List.init n Fun.id))

let test_e2e_not_found_and_bad_line () =
  with_server (fun sock ->
      check_error (send sock "{\"cmd\":\"synth\",\"bench\":\"b99\"}") "not_found";
      check_error (send sock "this is not json") "bad_request";
      (* The same connection stays usable after an error. *)
      let c = Client.connect ~retries:100 (`Unix sock) in
      let e = Client.request_line c "{\"cmd\":\"nope\"}" in
      let ok = Client.request_line c "{\"cmd\":\"ping\"}" in
      Client.close c;
      Alcotest.(check bool) "error then ping" true
        (match (Json.parse e, Json.parse ok) with
        | Ok e, Ok ok ->
            Json.member "status" e = Some (Json.String "error")
            && Json.member "status" ok = Some (Json.String "ok")
        | _ -> false))

let test_e2e_overload () =
  with_server ~domains:1 ~max_pending:1 (fun sock ->
      (* Fill the single admission slot with a slow request on one
         connection, then a second connection must be rejected, not
         queued. *)
      let slow = Client.connect ~retries:100 (`Unix sock) in
      let t = Domain.spawn (fun () -> Client.request_line slow "{\"cmd\":\"sleep\",\"seconds\":1.5}") in
      Unix.sleepf 0.4;
      let r = send sock "{\"cmd\":\"sleep\",\"seconds\":0.1}" in
      check_error r "overloaded";
      (* ping is answered inline, never subject to admission control. *)
      check_status (send sock "{\"cmd\":\"ping\"}") "ok";
      let slow_resp = Domain.join t in
      Client.close slow;
      Alcotest.(check bool) "slow request still completed" true
        (match Json.parse slow_resp with
        | Ok j -> Json.member "status" j = Some (Json.String "ok")
        | Error _ -> false);
      (* Slot free again: the next request is admitted. *)
      check_status (send sock "{\"cmd\":\"sleep\",\"seconds\":0.01}") "ok")

let test_e2e_deadline () =
  with_server ~domains:1 (fun sock ->
      let t0 = Unix.gettimeofday () in
      let r = send sock "{\"cmd\":\"sleep\",\"seconds\":10,\"deadline_s\":0.3}" in
      let elapsed = Unix.gettimeofday () -. t0 in
      check_error r "deadline_exceeded";
      Alcotest.(check bool) "answered at the deadline, not after the sleep" true
        (elapsed < 5.);
      (* The daemon survives: the worker is still busy but the loop and a
         second worker slot (none here — same worker after it drains) keep
         serving inline commands. *)
      check_status (send sock "{\"cmd\":\"ping\"}") "ok";
      check_status (send sock "{\"cmd\":\"stats\"}") "ok")

let test_e2e_default_deadline () =
  with_server ~domains:1 ~default_deadline_s:0.3 (fun sock ->
      let r = send sock "{\"cmd\":\"sleep\",\"seconds\":10}" in
      check_error r "deadline_exceeded")

let test_e2e_shutdown () =
  with_server (fun sock ->
      check_status (send sock "{\"cmd\":\"synth\",\"bench\":\"b01\",\"vectors\":5}") "ok";
      let r = send sock "{\"cmd\":\"shutdown\"}" in
      check_status r "ok";
      (* The listener closes promptly: connects start failing. *)
      let gone =
        let rec probe n =
          if n = 0 then false
          else
            match Client.connect (`Unix sock) with
            | exception Unix.Unix_error _ -> true
            | c -> (
                (* Accepted just before the close raced us — requests on it
                   must be refused as shutting down or the socket dropped. *)
                match Client.request_line c "{\"cmd\":\"ping\"}" with
                | exception _ ->
                    Client.close c;
                    true
                | resp ->
                    Client.close c;
                    (match Json.parse resp with
                    | Ok j when Json.member "error" j = Some (Json.String "shutting_down") ->
                        true
                    | _ ->
                        Unix.sleepf 0.05;
                        probe (n - 1)))
        in
        probe 40
      in
      Alcotest.(check bool) "server stopped accepting" true gone)
  (* with_server joins the server domain, proving the loop terminated. *)

let test_tier_thresholds () =
  let cfg = { Server.default_config with Server.max_pending = 8 } in
  Alcotest.(check (pair int int)) "defaults at half and three-quarters" (4, 6)
    (Server.tier_thresholds cfg);
  Alcotest.(check (pair int int)) "at least 1" (1, 1)
    (Server.tier_thresholds { cfg with Server.max_pending = 1 });
  Alcotest.(check int) "backlog defaults to at least the admission bound" 64
    (Server.backlog_of cfg);
  Alcotest.(check int) "large queues widen the backlog" 200
    (Server.backlog_of { cfg with Server.max_pending = 200 });
  Alcotest.(check int) "explicit backlog wins" 4
    (Server.backlog_of { cfg with Server.backlog = Some 4 })

let test_e2e_tier_ladder () =
  (* One worker, three admission slots, so the default watermarks sit at 1
     (throttle) and 2 (shed).  A single pipelined batch walks the whole
     ladder: the sleep holds the worker so in-flight counts cannot drain
     mid-batch. *)
  with_server ~domains:1 ~max_pending:3
    (fun sock ->
      let lines =
        [
          "{\"cmd\":\"sleep\",\"seconds\":0.6,\"id\":0}";
          "{\"cmd\":\"sleep\",\"seconds\":0.1,\"id\":1}";
          "{\"cmd\":\"synth\",\"bench\":\"b02\",\"vectors\":5,\"id\":2}";
          "{\"cmd\":\"sleep\",\"seconds\":0.1,\"id\":3}";
          "{\"cmd\":\"synth\",\"bench\":\"b03\",\"vectors\":5,\"id\":4}";
          "{\"cmd\":\"synth\",\"bench\":\"b04\",\"vectors\":5,\"id\":5}";
          "{\"cmd\":\"ping\",\"id\":6}";
        ]
      in
      let c = Client.connect ~retries:100 (`Unix sock) in
      Client.send_line c (String.concat "\n" lines);
      let resp () =
        match Json.parse (Client.recv_line c) with
        | Ok j -> j
        | Error e -> Alcotest.failf "bad response: %s" e
      in
      (* id 0: first sleep admitted — occupies the worker. *)
      check_status (resp ()) "ok";
      (* id 1: past the throttle watermark, with a retry hint. *)
      let throttled = resp () in
      check_error throttled "throttled";
      Alcotest.(check bool) "retry_after_s > 0" true
        (match Option.bind (Json.member "retry_after_s" throttled) Json.to_float with
        | Some s -> s > 0.
        | None -> false);
      (* id 2: cacheable work rides through the throttle/shed tiers. *)
      check_status (resp ()) "ok";
      (* id 3: non-cacheable work past the shed watermark. *)
      check_error (resp ()) "shed";
      (* id 4: cacheable, still under max_pending. *)
      check_status (resp ()) "ok";
      (* id 5: the queue is full — even cacheable work is rejected. *)
      check_error (resp ()) "overloaded";
      (* id 6: ping is answered inline regardless of load. *)
      check_status (resp ()) "ok";
      Client.close c;
      (* The b02 result landed in the cache despite the storm around it. *)
      let r = send sock "{\"cmd\":\"synth\",\"bench\":\"b02\",\"vectors\":5}" in
      check_status r "ok";
      Alcotest.(check (option bool)) "b02 cached" (Some true)
        (Option.bind (Json.member "cached" r) Json.to_bool);
      (* Stats expose per-tier counters. *)
      let s = send sock "{\"cmd\":\"stats\"}" in
      let tier name =
        match Option.bind (get s [ "result"; "tiers"; name ]) Json.to_int with
        | Some n -> n
        | None -> Alcotest.failf "missing tier counter %s" name
      in
      Alcotest.(check bool) "ok tier counted" true (tier "ok" >= 3);
      Alcotest.(check bool) "throttled counted" true (tier "throttled" >= 1);
      Alcotest.(check bool) "shed counted" true (tier "shed" >= 1);
      Alcotest.(check bool) "overloaded counted" true (tier "overloaded" >= 1))

let test_e2e_pipelined_batch_order () =
  (* Ten requests in one write; the ten responses come back in send order
     even though the admitted work fans out across pool slices. *)
  with_server ~domains:2 ~max_pending:16 (fun sock ->
      let n = 10 in
      let lines =
        List.init n (fun i ->
            if i mod 3 = 0 then Printf.sprintf "{\"cmd\":\"ping\",\"id\":%d}" i
            else
              Printf.sprintf "{\"cmd\":\"synth\",\"bench\":\"b01\",\"vectors\":%d,\"id\":%d}"
                (5 + (i mod 2)) i)
      in
      let c = Client.connect ~retries:100 (`Unix sock) in
      Client.send_line c (String.concat "\n" lines);
      let ids =
        List.init n (fun _ ->
            match Json.parse (Client.recv_line c) with
            | Ok j -> (
                check_status j "ok";
                match Option.bind (Json.member "id" j) Json.to_int with
                | Some id -> id
                | None -> Alcotest.fail "response without id")
            | Error e -> Alcotest.failf "bad response: %s" e)
      in
      Client.close c;
      Alcotest.(check (list int)) "responses in send order" (List.init n Fun.id) ids)

let test_e2e_multi_shard () =
  (* Three shard loops behind one acceptor: connections land round-robin,
     every one is served, and stats report per-shard request counts. *)
  with_server ~shards:3 ~domains:2 ~max_pending:16 ~backlog:4 (fun sock ->
      let conns = List.init 6 (fun _ -> Client.connect ~retries:100 (`Unix sock)) in
      List.iteri
        (fun i c ->
          let r =
            Client.request_line c
              (Printf.sprintf "{\"cmd\":\"synth\",\"bench\":\"b01\",\"vectors\":5,\"id\":%d}" i)
          in
          match Json.parse r with
          | Ok j -> check_status j "ok"
          | Error e -> Alcotest.failf "bad response: %s" e)
        conns;
      let s = send sock "{\"cmd\":\"stats\"}" in
      List.iter Client.close conns;
      Alcotest.(check (option int)) "three shards reported" (Some 3)
        (Option.bind (get s [ "result"; "shards"; "count" ]) Json.to_int);
      let served =
        match get s [ "result"; "shards"; "requests" ] with
        | Some (Json.List l) -> List.filter_map Json.to_int l
        | _ -> []
      in
      Alcotest.(check int) "requests list has one entry per shard" 3 (List.length served);
      (* The stats snapshot predates its own response, so it sees the six
         synth replies but not necessarily itself. *)
      Alcotest.(check bool) "every request answered by some shard" true
        (List.fold_left ( + ) 0 served >= 6);
      Alcotest.(check bool) "round-robin touches every shard" true
        (List.for_all (fun n -> n >= 1) served))

(* ---------------- Client receive timeout ---------------- *)

let test_client_recv_timeout () =
  with_server ~domains:1 (fun sock ->
      let c = Client.connect ~retries:100 ~recv_timeout_s:0.3 (`Unix sock) in
      Client.send_line c "{\"cmd\":\"sleep\",\"seconds\":5}";
      let t0 = Unix.gettimeofday () in
      (match Client.recv_line c with
      | line -> Alcotest.failf "expected Timeout, got %s" line
      | exception Client.Timeout -> ());
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) "raised near the deadline, not the sleep" true (elapsed < 2.);
      Client.close c;
      (* The server is unharmed; a patient connection still gets served. *)
      check_status (send sock "{\"cmd\":\"ping\"}") "ok")

(* ---------------- Health ---------------- *)

let test_e2e_health () =
  with_server ~shards:2 (fun sock ->
      check_status (send sock "{\"cmd\":\"synth\",\"bench\":\"b01\",\"vectors\":5}") "ok";
      let h = send sock "{\"cmd\":\"health\",\"id\":\"h1\"}" in
      check_status h "ok";
      Alcotest.(check (option string)) "id echoed" (Some "h1")
        (Option.bind (Json.member "id" h) Json.to_string_opt);
      Alcotest.(check (option int)) "reports its own pid" (Some (Unix.getpid ()))
        (Option.bind (get h [ "result"; "pid" ]) Json.to_int);
      Alcotest.(check bool) "uptime is a non-negative float" true
        (match Option.bind (get h [ "result"; "uptime_s" ]) Json.to_float with
        | Some u -> u >= 0.
        | None -> false);
      Alcotest.(check bool) "inflight within the queue limit" true
        (match
           ( Option.bind (get h [ "result"; "inflight" ]) Json.to_int,
             Option.bind (get h [ "result"; "queue_limit" ]) Json.to_int )
         with
        | Some i, Some q -> i >= 0 && i <= q
        | _ -> false);
      (match get h [ "result"; "shard_depth" ] with
      | Some (Json.List l) ->
          Alcotest.(check int) "one depth per shard" 2 (List.length l);
          Alcotest.(check bool) "idle depths are zero" true
            (List.for_all (fun j -> Json.to_int j = Some 0) l)
      | _ -> Alcotest.fail "shard_depth missing");
      Alcotest.(check (option int)) "cache quarantine counter exposed" (Some 0)
        (Option.bind (get h [ "result"; "cache"; "quarantined" ]) Json.to_int);
      Alcotest.(check bool) "cache entries counted" true
        (match Option.bind (get h [ "result"; "cache"; "entries" ]) Json.to_int with
        | Some n -> n >= 1
        | None -> false))

(* ---------------- Fleet client ---------------- *)

(* A scripted endpoint: accepts one connection and answers each request
   line with the next canned response, then hangs up.  Lets the retry
   policy be exercised without a real overloaded server. *)
let with_canned_server responses f =
  incr sock_counter;
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ee_canned_%d_%d.sock" (Unix.getpid ()) !sock_counter)
  in
  if Sys.file_exists sock then Sys.remove sock;
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX sock);
  Unix.listen srv 8;
  let d =
    Domain.spawn (fun () ->
        let fd, _ = Unix.accept srv in
        let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
        (try
           List.iter
             (fun resp ->
               ignore (input_line ic);
               output_string oc (resp ^ "\n");
               flush oc)
             responses
         with End_of_file | Sys_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ())
  in
  Fun.protect
    ~finally:(fun () ->
      Domain.join d;
      (try Unix.close srv with Unix.Unix_error _ -> ());
      try Sys.remove sock with Sys_error _ -> ())
    (fun () -> f sock)

let test_fleet_retry_exhaustion () =
  (* Every attempt is rejected: the budget runs out and the caller still
     sees the last structured rejection verbatim, plus one backoff sleep
     between attempts (never after the last). *)
  let reject = {|{"status":"error","error":"overloaded","retry_after_s":0.05}|} in
  with_canned_server [ reject; reject; reject ] (fun sock ->
      let sleeps = ref [] in
      let policy =
        {
          Fleet_client.default_policy with
          Fleet_client.max_attempts = 3;
          base_backoff_s = 0.001;
          max_backoff_s = 1.0;
          jitter = 0.25;
          recv_timeout_s = Some 5.;
        }
      in
      let fc =
        Fleet_client.create ~policy ~seed:7
          ~sleep:(fun s -> sleeps := s :: !sleeps)
          [ `Unix sock ]
      in
      (match Fleet_client.request_line fc "{\"cmd\":\"ping\"}" with
      | line -> Alcotest.failf "expected Failed, got %s" line
      | exception Fleet_client.Failed (Fleet_client.Rejected { code; attempts; line }) ->
          Alcotest.(check string) "last rejection code" "overloaded" code;
          Alcotest.(check int) "attempt budget spent" 3 attempts;
          Alcotest.(check string) "last server line verbatim" reject line
      | exception Fleet_client.Failed f ->
          Alcotest.failf "wrong failure: %s" (Fleet_client.failure_to_string f));
      (* The exponential (1-2 ms) is far below the 50 ms hint, so the
         hint floors both delays exactly. *)
      Alcotest.(check (list (float 1e-9))) "two sleeps, both floored by the hint"
        [ 0.05; 0.05 ] !sleeps;
      Fleet_client.close fc)

let test_fleet_retry_then_success () =
  let reject = {|{"status":"error","error":"throttled","retry_after_s":0.02}|} in
  let ok = {|{"status":"ok","result":{}}|} in
  with_canned_server [ reject; ok ] (fun sock ->
      let sleeps = ref [] in
      let policy =
        {
          Fleet_client.default_policy with
          Fleet_client.max_attempts = 5;
          base_backoff_s = 0.001;
          max_backoff_s = 1.0;
        }
      in
      let fc =
        Fleet_client.create ~policy ~seed:3
          ~sleep:(fun s -> sleeps := s :: !sleeps)
          [ `Unix sock ]
      in
      Alcotest.(check string) "served after one retry" ok
        (Fleet_client.request_line fc "{\"cmd\":\"ping\"}");
      Alcotest.(check (list (float 1e-9))) "one sleep, floored by the hint" [ 0.02 ]
        !sleeps;
      Fleet_client.close fc)

let test_backoff_delay () =
  let p =
    {
      Fleet_client.default_policy with
      Fleet_client.base_backoff_s = 0.1;
      max_backoff_s = 1.0;
      jitter = 0.25;
    }
  in
  (* No hint: exponential doubling, jittered downward by at most 25 %. *)
  List.iter
    (fun attempt ->
      let expd = Float.min 1.0 (0.1 *. Float.pow 2. (float_of_int (attempt - 1))) in
      let hi = Fleet_client.backoff_delay p ~attempt ~hint:None ~u:0. in
      let lo = Fleet_client.backoff_delay p ~attempt ~hint:None ~u:0.9999 in
      Alcotest.(check (float 1e-9)) "u=0 gives the full exponential" expd hi;
      Alcotest.(check bool) "jitter shaves at most 25%" true
        (lo >= (expd *. 0.75) -. 1e-9 && lo <= expd))
    [ 1; 2; 3; 4; 5; 6; 7 ];
  (* The cap bounds every delay, whatever the attempt number. *)
  Alcotest.(check (float 1e-9)) "capped" 1.0
    (Fleet_client.backoff_delay p ~attempt:9 ~hint:None ~u:0.);
  (* A server hint floors the delay... *)
  Alcotest.(check (float 1e-9)) "hint floors" 0.7
    (Fleet_client.backoff_delay p ~attempt:1 ~hint:(Some 0.7) ~u:0.5);
  (* ...but never past the cap... *)
  Alcotest.(check (float 1e-9)) "hint still capped" 1.0
    (Fleet_client.backoff_delay p ~attempt:1 ~hint:(Some 5.) ~u:0.5);
  (* ...and a hint below our own schedule is ignored. *)
  Alcotest.(check (float 1e-9)) "small hint ignored" 0.4
    (Fleet_client.backoff_delay p ~attempt:3 ~hint:(Some 0.01) ~u:0.)

let test_fleet_failover () =
  (* Two real servers; stop the one the client is talking to and the next
     request lands on the survivor. *)
  incr sock_counter;
  let base =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ee_fleet_test_%d_%d" (Unix.getpid ()) !sock_counter)
  in
  let sock0 = base ^ ".0" and sock1 = base ^ ".1" in
  let mk sock stop =
    Domain.spawn (fun () ->
        Server.serve ~stop
          {
            Server.default_config with
            Server.address = `Unix sock;
            shards = 1;
            domains = 1;
            shutdown_grace_s = 1.;
          })
  in
  let stop0 = Atomic.make false and stop1 = Atomic.make false in
  let d0 = mk sock0 stop0 and d1 = mk sock1 stop1 in
  let joined0 = ref false in
  let join0 () =
    if not !joined0 then begin
      joined0 := true;
      Atomic.set stop0 true;
      Domain.join d0
    end
  in
  Fun.protect
    ~finally:(fun () ->
      join0 ();
      Atomic.set stop1 true;
      Domain.join d1)
    (fun () ->
      (* Wait until both endpoints accept. *)
      List.iter
        (fun s -> Client.close (Client.connect ~retries:100 (`Unix s)))
        [ sock0; sock1 ];
      let fc = Fleet_client.create ~seed:11 [ `Unix sock0; `Unix sock1 ] in
      let line = "{\"cmd\":\"synth\",\"bench\":\"b01\",\"vectors\":5}" in
      let parse resp =
        match Json.parse resp with Ok j -> j | Error e -> Alcotest.failf "bad json: %s" e
      in
      let r1 = parse (Fleet_client.request_line fc line) in
      check_status r1 "ok";
      (* Kill the endpoint the client is connected to. *)
      join0 ();
      let r2 = parse (Fleet_client.request_line fc line) in
      check_status r2 "ok";
      Alcotest.(check bool) "survivor computes the same result" true
        (get r1 [ "result"; "ee_gates" ] = get r2 [ "result"; "ee_gates" ]);
      Fleet_client.close fc)

(* ---------------- Supervisor ---------------- *)

let test_supervisor_backoff () =
  let b = Supervisor.Backoff.create ~base_s:0.5 ~cap_s:4. ~stable_s:10. () in
  let next u = Supervisor.Backoff.next b ~uptime:u in
  Alcotest.(check (float 1e-9)) "first crash" 0.5 (next 1.);
  Alcotest.(check (float 1e-9)) "doubles" 1.0 (next 1.);
  Alcotest.(check (float 1e-9)) "doubles again" 2.0 (next 1.);
  Alcotest.(check (float 1e-9)) "hits the cap" 4.0 (next 1.);
  Alcotest.(check (float 1e-9)) "stays at the cap" 4.0 (next 1.);
  Alcotest.(check int) "streak counts crashes" 5 (Supervisor.Backoff.streak b);
  (* A stable run resets the streak: occasional crashes restart promptly. *)
  Alcotest.(check (float 1e-9)) "stability resets" 0.5 (next 12.);
  Alcotest.(check int) "streak reset" 1 (Supervisor.Backoff.streak b);
  List.iter
    (fun mk ->
      match mk () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "bad parameters accepted")
    [
      (fun () -> Supervisor.Backoff.create ~base_s:0. ());
      (fun () -> Supervisor.Backoff.create ~base_s:1. ~cap_s:0.5 ());
      (fun () -> Supervisor.Backoff.create ~stable_s:(-1.) ());
    ]

(* A scripted process world driven by a fake clock: ops.sleep advances
   time, reap pops a queue the scenario fills, and spawn/kill record what
   the supervisor did.  The state machine runs unchanged. *)
type fake_world = {
  mutable clock : float;
  exits : (int * Unix.process_status) Queue.t;
  mutable kills : (int * int) list;  (* (pid, signal), newest first *)
  mutable events : Supervisor.event list;  (* newest first *)
}

let fake_world () =
  { clock = 0.; exits = Queue.create (); kills = []; events = [] }

let fake_ops w ~on_spawn ~on_kill ~probe =
  {
    Supervisor.spawn = on_spawn;
    kill =
      (fun ~pid ~signal ->
        w.kills <- (pid, signal) :: w.kills;
        on_kill ~pid ~signal);
    reap = (fun () -> if Queue.is_empty w.exits then None else Some (Queue.pop w.exits));
    probe;
    now = (fun () -> w.clock);
    sleep = (fun s -> w.clock <- w.clock +. s);
    log = ignore;
  }

let restart_delays w =
  List.rev
    (List.filter_map
       (function Supervisor.Restart_scheduled { delay_s; _ } -> Some delay_s | _ -> None)
       w.events)

let sup_cfg =
  {
    Supervisor.children = 1;
    tick_s = 0.1;
    probe_interval_s = 1000.;  (* probes off unless a scenario wants them *)
    probe_misses = 3;
    backoff_base_s = 0.5;
    backoff_cap_s = 30.;
    stable_s = 10.;
    grace_s = 5.;
  }

let test_supervisor_restart_backoff () =
  (* Two instant crashes (backoff 0.5 then 1.0), a long stable run whose
     crash resets the streak (0.5 again), then stop. *)
  let w = fake_world () in
  let stop = Atomic.make false in
  let next_pid = ref 99 in
  let stable_crash = ref None in
  let spawn _slot =
    incr next_pid;
    let pid = !next_pid in
    (match pid - 99 with
    | 1 | 2 -> Queue.add (pid, Unix.WEXITED 1) w.exits
    | 3 -> stable_crash := Some (pid, w.clock +. 11.)
    | _ -> Atomic.set stop true);
    pid
  in
  let on_kill ~pid ~signal =
    (* The drain's SIGTERM lands on a well-behaved child. *)
    if signal = Sys.sigterm then Queue.add (pid, Unix.WSIGNALED Sys.sigterm) w.exits
  in
  let ops = fake_ops w ~on_spawn:spawn ~on_kill ~probe:(fun _ -> true) in
  (* Wrap reap to also fire the delayed crash of the stable child. *)
  let ops =
    {
      ops with
      Supervisor.reap =
        (fun () ->
          (match !stable_crash with
          | Some (pid, at) when w.clock >= at ->
              stable_crash := None;
              Queue.add (pid, Unix.WEXITED 0) w.exits
          | _ -> ());
          if Queue.is_empty w.exits then None else Some (Queue.pop w.exits));
    }
  in
  let stats =
    Supervisor.run ~on_event:(fun e -> w.events <- e :: w.events) sup_cfg ops ~stop
  in
  Alcotest.(check (list (float 1e-9)))
    "crash loop backs off, stable run resets" [ 0.5; 1.0; 0.5 ] (restart_delays w);
  Alcotest.(check int) "four spawns" 4 stats.Supervisor.spawns;
  Alcotest.(check int) "three restarts" 3 stats.Supervisor.restarts;
  Alcotest.(check int) "no wedge kills" 0 stats.Supervisor.wedge_kills;
  Alcotest.(check bool) "drain SIGTERMed the last child" true
    (List.mem (103, Sys.sigterm) w.kills)

let test_supervisor_wedge_kill () =
  (* A child that answers no probe: after probe_misses consecutive
     failures the supervisor SIGKILLs it and restarts through backoff. *)
  let w = fake_world () in
  let stop = Atomic.make false in
  let healthy = ref false in
  let next_pid = ref 199 in
  let spawn _slot =
    incr next_pid;
    if !next_pid > 200 then begin
      (* The replacement probes healthy; end the scenario. *)
      healthy := true;
      Atomic.set stop true
    end;
    !next_pid
  in
  let on_kill ~pid ~signal =
    if signal = Sys.sigkill || signal = Sys.sigterm then
      Queue.add (pid, Unix.WSIGNALED signal) w.exits
  in
  let cfg = { sup_cfg with Supervisor.probe_interval_s = 1.0; probe_misses = 2 } in
  let ops = fake_ops w ~on_spawn:spawn ~on_kill ~probe:(fun _ -> !healthy) in
  let stats =
    Supervisor.run ~on_event:(fun e -> w.events <- e :: w.events) cfg ops ~stop
  in
  Alcotest.(check int) "one wedge kill" 1 stats.Supervisor.wedge_kills;
  Alcotest.(check int) "wedged child replaced" 2 stats.Supervisor.spawns;
  Alcotest.(check bool) "SIGKILL delivered to the wedged pid" true
    (List.mem (200, Sys.sigkill) w.kills);
  Alcotest.(check bool) "wedged event carries the miss count" true
    (List.exists
       (function Supervisor.Wedged { misses; _ } -> misses = 2 | _ -> false)
       w.events)

let test_supervisor_drain_escalates () =
  (* A child that ignores SIGTERM: the drain waits out grace_s, then
     SIGKILLs it.  Total drain time is bounded by the grace budget. *)
  let w = fake_world () in
  let stop = Atomic.make false in
  let spawn _slot =
    Atomic.set stop true;
    100
  in
  let on_kill ~pid ~signal =
    (* SIGTERM is ignored; only SIGKILL produces an exit. *)
    if signal = Sys.sigkill then Queue.add (pid, Unix.WSIGNALED Sys.sigkill) w.exits
  in
  let cfg = { sup_cfg with Supervisor.grace_s = 2.0 } in
  let ops = fake_ops w ~on_spawn:spawn ~on_kill ~probe:(fun _ -> true) in
  let stats =
    Supervisor.run ~on_event:(fun e -> w.events <- e :: w.events) cfg ops ~stop
  in
  Alcotest.(check bool) "SIGTERM first, then SIGKILL" true
    (List.rev w.kills = [ (100, Sys.sigterm); (100, Sys.sigkill) ]);
  Alcotest.(check bool) "escalated only after the grace budget" true (w.clock >= 2.0);
  Alcotest.(check bool) "drain bounded (grace + slack)" true (w.clock <= 4.0);
  Alcotest.(check int) "single spawn" 1 stats.Supervisor.spawns;
  Alcotest.(check bool) "lifecycle events in order" true
    (match List.rev w.events with
    | Supervisor.Spawned _ :: rest -> List.mem Supervisor.Draining rest
    | _ -> false)

(* [Client.recv_line] frames replies through one read buffer per
   connection: reading 30 000 pipelined ping replies (about 2 MiB) costs a
   few dozen words per reply, the reply string and its list cell.  A fresh
   64 KiB read buffer per call, or a copy of the unread tail per line,
   costs thousands. *)
let test_e2e_client_framing_alloc () =
  with_server (fun sock ->
      let n = 30_000 in
      let c = Client.connect ~retries:100 (`Unix sock) in
      for i = 0 to n - 1 do
        Client.send_line c (Printf.sprintf "{\"cmd\":\"ping\",\"id\":%d}" i)
      done;
      let a0 = Gc.allocated_bytes () in
      let last = ref "" in
      for _ = 1 to n do
        last := Client.recv_line c
      done;
      let words = (Gc.allocated_bytes () -. a0) /. float_of_int (Sys.word_size / 8) in
      Client.close c;
      (match Json.parse !last with
      | Ok j ->
          check_status j "ok";
          Alcotest.(check (option int)) "last reply" (Some (n - 1))
            (Option.bind (Json.member "id" j) Json.to_int)
      | Error e -> Alcotest.failf "bad response: %s" e);
      let per_reply = words /. float_of_int n in
      Alcotest.(check bool) (Printf.sprintf "%.1f words per reply" per_reply) true
        (per_reply < 64.))

(* Two inequivalent netlists whose ports are named like the canonical
   BLIF's internal nodes ([n2]) must not share an import cache key: the
   second import is computed, and its row is the one an in-process run of
   the same netlist gives. *)
let test_e2e_import_port_clash () =
  let text_a = ".model m\n.inputs n2 b\n.outputs y\n.names n2 b x\n11 1\n.names x n2 y\n10 1\n.end\n" in
  let text_b = ".model m\n.inputs n2 b\n.outputs y\n.names n2 b x\n11 1\n.names n2 x y\n10 1\n.end\n" in
  let import text =
    Json.to_string
      (Json.Obj
         [
           ("cmd", Json.String "import"); ("text", Json.String text); ("vectors", Json.Int 16);
         ])
  in
  with_server (fun sock ->
      let ra = send sock (import text_a) in
      check_status ra "ok";
      let rb = send sock (import text_b) in
      check_status rb "ok";
      Alcotest.(check (option bool)) "B is not served A's entry" (Some false)
        (Option.bind (Json.member "cached" rb) Json.to_bool);
      let spec = Engine.with_vectors 16 Engine.default_spec in
      let nl = Ee_frontend.Remap.run (Ee_frontend.Frontend.parse_exn text_b) in
      let pl = Ee_phased.Pl.of_netlist nl in
      let pl_ee, report = Engine.plan spec pl in
      let row =
        Ee_report.Tables.row ~vectors:16 ~seed:spec.Engine.seed
          ~config:(Engine.sim_config spec) ~id:"netlist" ~description:"" report pl pl_ee
      in
      let field k = get rb [ "result"; "synth"; k ] in
      Alcotest.(check (option int)) "pl_gates" (Some row.Ee_report.Tables.pl_gates)
        (Option.bind (field "pl_gates") Json.to_int);
      Alcotest.(check (option int)) "ee_gates" (Some row.Ee_report.Tables.ee_gates)
        (Option.bind (field "ee_gates") Json.to_int);
      List.iter
        (fun (k, v) ->
          Alcotest.(check (option (float 0.))) k (Some v) (Option.bind (field k) Json.to_float))
        [
          ("delay_no_ee", row.Ee_report.Tables.delay_no_ee);
          ("delay_ee", row.Ee_report.Tables.delay_ee);
        ];
      Alcotest.(check (option string)) "critical cycle" (Some row.Ee_report.Tables.critical_cycle)
        (Option.bind (field "critical_cycle") Json.to_string_opt))

(* ---------------- Request lifecycle on a fake clock ---------------- *)

module Lifecycle = Ee_serve.Lifecycle

(* One shard's lifecycle with no sockets and no workers: the clock is a
   field, the pool holds every submitted slot until a test fills it, and
   replies are collected in order. *)
type fake_shard = {
  mutable fake_now : float;
  held : (Protocol.request * Lifecycle.slot) Queue.t;
  mutable sent : string list;  (* newest first *)
  tiers : (string, int) Hashtbl.t;
}

let fake_lifecycle ?(max_pending = 8) ?default_deadline_s () =
  let f = { fake_now = 100.; held = Queue.create (); sent = []; tiers = Hashtbl.create 4 } in
  let throttle, shed = Server.tier_thresholds { Server.default_config with Server.max_pending } in
  let ops =
    {
      Lifecycle.now = (fun () -> f.fake_now);
      inline = (fun _ -> Json.Obj []);
      cached = (fun _ -> None);
      submit = Array.iter (fun a -> Queue.add a f.held);
      send =
        (fun () line ->
          f.sent <- line :: f.sent;
          true);
      tier =
        (fun t ->
          Hashtbl.replace f.tiers t (1 + Option.value ~default:0 (Hashtbl.find_opt f.tiers t)));
      retry_after = (fun ~inflight:_ -> 0.25);
      record = (fun ~cmd:_ ~outcome:_ ~lat_ms:_ -> ());
    }
  in
  let stop = Atomic.make false and inflight = Atomic.make 0 and depth = Atomic.make 0 in
  (f, { Lifecycle.ops; max_pending; throttle; shed; default_deadline_s; stop; inflight; depth })

(* The replies sent since the last call, oldest first. *)
let take_sent f =
  let r = List.rev_map (fun l -> match Json.parse l with Ok j -> j | Error e -> Alcotest.fail e) f.sent in
  f.sent <- [];
  r

let reply_code j =
  match Option.bind (Json.member "error" j) Json.to_string_opt with
  | Some code -> code
  | None -> Option.value ~default:"?" (Option.bind (Json.member "status" j) Json.to_string_opt)

let reply_ids = List.map (fun j -> Option.value ~default:(-1) (Option.bind (Json.member "id" j) Json.to_int))

let fill (_, (slot : Lifecycle.slot)) result = Atomic.set slot (Some result)

let test_lifecycle_ladder () =
  (* The e2e ladder as one batch, with max_pending 3 (watermarks 1 and 2)
     and a pool that runs nothing, so only the batch's own admissions
     count as in flight. *)
  let f, lc = fake_lifecycle ~max_pending:3 () in
  let q = Queue.create () in
  Lifecycle.batch lc q
    [
      "{\"cmd\":\"sleep\",\"seconds\":0.6,\"id\":0}";
      "{\"cmd\":\"sleep\",\"seconds\":0.1,\"id\":1}";
      "{\"cmd\":\"synth\",\"bench\":\"b02\",\"vectors\":5,\"id\":2}";
      "{\"cmd\":\"sleep\",\"seconds\":0.1,\"id\":3}";
      "{\"cmd\":\"synth\",\"bench\":\"b03\",\"vectors\":5,\"id\":4}";
      "{\"cmd\":\"synth\",\"bench\":\"b04\",\"vectors\":5,\"id\":5}";
      "{\"cmd\":\"ping\",\"id\":6}";
    ];
  Alcotest.(check int) "three admitted, one submission" 3 (Queue.length f.held);
  Alcotest.(check int) "shard depth" 3 (Atomic.get lc.Lifecycle.depth);
  Lifecycle.pump lc () q;
  Alcotest.(check int) "the head holds every reply behind it" 0 (List.length (take_sent f));
  Queue.iter (fun a -> fill a (Ok (Json.Obj [], false))) f.held;
  Lifecycle.pump lc () q;
  let replies = take_sent f in
  Alcotest.(check (list string)) "ladder"
    [ "ok"; "throttled"; "ok"; "shed"; "ok"; "overloaded"; "ok" ]
    (List.map reply_code replies);
  Alcotest.(check (list int)) "request order" [ 0; 1; 2; 3; 4; 5; 6 ] (reply_ids replies);
  Alcotest.(check bool) "throttled carries retry_after_s > 0" true
    (match Option.bind (Json.member "retry_after_s" (List.nth replies 1)) Json.to_float with
    | Some s -> s > 0.
    | None -> false);
  Alcotest.(check int) "depth released" 0 (Atomic.get lc.Lifecycle.depth);
  Alcotest.(check (list (pair string int))) "tier counts"
    [ ("ok", 3); ("overloaded", 1); ("shed", 1); ("throttled", 1) ]
    (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) f.tiers []))

let test_lifecycle_deadline () =
  (* Its own deadline_s, and the server default when it has none. *)
  List.iter
    (fun (default_deadline_s, line, d) ->
      let f, lc = fake_lifecycle ?default_deadline_s () in
      let q = Queue.create () in
      Lifecycle.batch lc q [ line ];
      let due = 100. +. d in
      Alcotest.(check (option (float 0.))) "absolute deadline" (Some due) (Lifecycle.deadline q);
      f.fake_now <- Float.pred due;
      Lifecycle.pump lc () q;
      Alcotest.(check int) "not one tick early" 0 (List.length (take_sent f));
      f.fake_now <- due;
      Lifecycle.pump lc () q;
      Alcotest.(check (list string)) "fires at t0 + d" [ "deadline_exceeded" ]
        (List.map reply_code (take_sent f));
      Alcotest.(check int) "depth released" 0 (Atomic.get lc.Lifecycle.depth))
    [
      (None, "{\"cmd\":\"sleep\",\"seconds\":9,\"deadline_s\":0.3}", 0.3);
      (Some 0.7, "{\"cmd\":\"sleep\",\"seconds\":9}", 0.7);
      (Some 0.7, "{\"cmd\":\"sleep\",\"seconds\":9,\"deadline_s\":0.3}", 0.3);
    ]

let test_lifecycle_in_order () =
  let f, lc = fake_lifecycle () in
  let q = Queue.create () in
  Lifecycle.batch lc q
    (List.map
       (Printf.sprintf "{\"cmd\":\"synth\",\"bench\":\"b01\",\"vectors\":%d,\"id\":%d}" 5)
       [ 1; 2; 3 ]);
  let first, second, third =
    match List.of_seq (Queue.to_seq f.held) with
    | [ a; b; c ] -> (a, b, c)
    | _ -> Alcotest.fail "three submissions"
  in
  fill third (Error ("not_found", "no such bench"));
  fill second (Ok (Json.Obj [ ("n", Json.Int 2) ], true));
  Lifecycle.pump lc () q;
  Alcotest.(check int) "later slots wait for the head" 0 (List.length (take_sent f));
  fill first (Ok (Json.Obj [], false));
  Lifecycle.pump lc () q;
  let replies = take_sent f in
  Alcotest.(check (list int)) "request order" [ 1; 2; 3 ] (reply_ids replies);
  Alcotest.(check (list string)) "each its own slot's reply" [ "ok"; "ok"; "not_found" ]
    (List.map reply_code replies);
  Alcotest.(check (option bool)) "cached flag from the slot" (Some true)
    (Option.bind (Json.member "cached" (List.nth replies 1)) Json.to_bool);
  Alcotest.(check bool) "queue empty" true (Queue.is_empty q)

let test_lifecycle_shutdown_flush () =
  let f, lc = fake_lifecycle () in
  let q = Queue.create () in
  Lifecycle.batch lc q
    [
      "{\"cmd\":\"sleep\",\"seconds\":9,\"id\":1}";
      "{\"cmd\":\"ping\",\"id\":2}";
      "{\"cmd\":\"synth\",\"bench\":\"b01\",\"id\":3}";
    ];
  (* A filled slot behind a running head is flushed too. *)
  fill (List.nth (List.of_seq (Queue.to_seq f.held)) 1) (Ok (Json.Obj [], false));
  Atomic.set lc.Lifecycle.stop true;
  Lifecycle.batch lc q [ "{\"cmd\":\"ping\",\"id\":4}" ];
  Alcotest.(check int) "depth before the flush" 2 (Atomic.get lc.Lifecycle.depth);
  Lifecycle.pump lc () q;
  Alcotest.(check int) "the running head still waits" 0 (List.length (take_sent f));
  Lifecycle.flush lc () q;
  let replies = take_sent f in
  Alcotest.(check (list int)) "request order" [ 1; 2; 3; 4 ] (reply_ids replies);
  Alcotest.(check (list string)) "running entries answered shutting_down"
    [ "shutting_down"; "ok"; "shutting_down"; "shutting_down" ]
    (List.map reply_code replies);
  Alcotest.(check (option string)) "flush message"
    (Some "server stopped before the computation finished")
    (Option.bind (Json.member "message" (List.hd replies)) Json.to_string_opt);
  Alcotest.(check bool) "queue empty" true (Queue.is_empty q);
  Alcotest.(check int) "depth back to 0" 0 (Atomic.get lc.Lifecycle.depth)

let test_host_port () =
  List.iter
    (fun (spec, expected) ->
      Alcotest.(check (result (pair string int) string)) spec expected (Server.host_port spec))
    [
      ("127.0.0.1:7421", Ok ("127.0.0.1", 7421));
      ("nohost", Error "expected HOST:PORT for --tcp");
      ("h:0", Error "bad port \"0\" in --tcp");
      ("h:65536", Error "bad port \"65536\" in --tcp");
      ("h:http", Error "bad port \"http\" in --tcp");
    ];
  (match Server.sockaddr (`Tcp ("127.0.0.1", 7421)) with
  | Unix.PF_INET, Unix.ADDR_INET (a, 7421) ->
      Alcotest.(check string) "numeric host" "127.0.0.1" (Unix.string_of_inet_addr a)
  | _ -> Alcotest.fail "127.0.0.1:7421 resolves to an inet address");
  match Server.sockaddr (`Unix "s.sock") with
  | Unix.PF_UNIX, Unix.ADDR_UNIX "s.sock" -> ()
  | _ -> Alcotest.fail "a Unix address resolves to itself"

(* [perf] and [faults] plan under the spec's selection: with "mcr" they
   describe the MCR plan's netlist, not the Eq. 1 one (b01: period 5.0
   against Eq. 1's 5.25). *)
let test_e2e_perf_faults_selection () =
  let pl =
    (Ee_report.Pipeline.build (Ee_bench_circuits.Itc99.find "b01")).Ee_report.Pipeline.pl
  in
  let pl_mcr, _ = Ee_core.Mcr_select.run pl in
  let lambda_mcr = (Ee_perf.Throughput.analyze pl_mcr).Ee_perf.Throughput.lambda in
  Alcotest.(check (float 0.)) "MCR plan's period" 5.0 lambda_mcr;
  with_server (fun sock ->
      let perf = send sock "{\"cmd\":\"perf\",\"bench\":\"b01\",\"waves\":8,\"selection\":\"mcr\"}" in
      check_status perf "ok";
      let lambda_expected =
        match get perf [ "result"; "benchmarks" ] with
        | Some (Json.List [ row ]) -> Option.bind (Json.member "lambda_expected" row) Json.to_float
        | _ -> None
      in
      Alcotest.(check (option (float 1e-6))) "perf lambda_expected is the MCR period"
        (Some lambda_mcr) lambda_expected;
      let faults = send sock "{\"cmd\":\"faults\",\"bench\":\"b01\",\"waves\":4,\"selection\":\"mcr\"}" in
      check_status faults "ok";
      Alcotest.(check (option int)) "faults pl_gates is the MCR netlist's"
        (Some (Array.length (Ee_phased.Pl.gates pl_mcr)))
        (Option.bind (get faults [ "result"; "pl_gates" ]) Json.to_int))

let suite =
  ( "serve",
    [
      Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
      Alcotest.test_case "json rejects malformed input" `Quick test_json_errors;
      Alcotest.test_case "json raw splice" `Quick test_json_raw_compact;
      Alcotest.test_case "protocol roundtrip" `Quick test_protocol_roundtrip;
      Alcotest.test_case "protocol rejects bad requests" `Quick test_protocol_rejects;
      Alcotest.test_case "protocol bounds waves" `Quick test_protocol_waves_bounds;
      Alcotest.test_case "protocol bounds vectors and timing" `Quick test_protocol_spec_bounds;
      Alcotest.test_case "e2e: synth + content-addressed cache" `Quick test_e2e_synth_and_cache;
      Alcotest.test_case "e2e: inline BLIF source" `Quick test_e2e_inline_blif;
      Alcotest.test_case "e2e: import reads wide names, rejects gate" `Quick
        test_e2e_import_blif_reader;
      Alcotest.test_case "e2e: perf, faults, import repeats cached" `Quick
        test_e2e_cached_kinds;
      Alcotest.test_case "e2e: oversized line refused, closed" `Quick test_e2e_request_bound;
      Alcotest.test_case "e2e: bad_request echoes cmd and id" `Quick test_e2e_bad_request_echo;
      Alcotest.test_case "e2e: 64 KiB chunks framed into lines" `Quick test_e2e_chunked_framing;
      Alcotest.test_case "e2e: search section + cache key" `Quick test_e2e_search_section;
      Alcotest.test_case "e2e: not_found / bad_request" `Quick test_e2e_not_found_and_bad_line;
      Alcotest.test_case "e2e: out-of-range waves are bad_request" `Quick
        test_e2e_waves_bad_request;
      Alcotest.test_case "e2e: hostile spec fields are bad_request" `Quick
        test_e2e_spec_bad_request;
      Alcotest.test_case "e2e: overload rejects, never queues unboundedly" `Quick
        test_e2e_overload;
      Alcotest.test_case "e2e: per-request deadline" `Quick test_e2e_deadline;
      Alcotest.test_case "e2e: server-default deadline" `Quick test_e2e_default_deadline;
      Alcotest.test_case "e2e: clean shutdown" `Quick test_e2e_shutdown;
      Alcotest.test_case "admission watermarks and backlog defaults" `Quick
        test_tier_thresholds;
      Alcotest.test_case "e2e: graded back-pressure ladder" `Quick test_e2e_tier_ladder;
      Alcotest.test_case "e2e: pipelined batch keeps response order" `Quick
        test_e2e_pipelined_batch_order;
      Alcotest.test_case "e2e: multi-shard round-robin" `Quick test_e2e_multi_shard;
      Alcotest.test_case "client receive timeout" `Quick test_client_recv_timeout;
      Alcotest.test_case "e2e: health snapshot" `Quick test_e2e_health;
      Alcotest.test_case "fleet client: retry budget exhaustion" `Quick
        test_fleet_retry_exhaustion;
      Alcotest.test_case "fleet client: retry honours the server hint" `Quick
        test_fleet_retry_then_success;
      Alcotest.test_case "fleet client: backoff schedule bounds" `Quick test_backoff_delay;
      Alcotest.test_case "fleet client: failover to a surviving endpoint" `Quick
        test_fleet_failover;
      Alcotest.test_case "supervisor: backoff doubling, cap, stability reset" `Quick
        test_supervisor_backoff;
      Alcotest.test_case "supervisor: crash-loop restart backoff (fake clock)" `Quick
        test_supervisor_restart_backoff;
      Alcotest.test_case "supervisor: wedged child killed and replaced" `Quick
        test_supervisor_wedge_kill;
      Alcotest.test_case "supervisor: drain escalates SIGTERM to SIGKILL" `Quick
        test_supervisor_drain_escalates;
      Alcotest.test_case "e2e: unread replies do not stall the shard" `Quick
        test_e2e_unread_replies;
      Alcotest.test_case "e2e: replies flushed after the client's end of input" `Quick
        test_e2e_half_close_flushes;
      Alcotest.test_case "e2e: client frames pipelined replies in linear allocation" `Quick
        test_e2e_client_framing_alloc;
      Alcotest.test_case "e2e: n<digits> port names do not share a cache key" `Quick
        test_e2e_import_port_clash;
      Alcotest.test_case "lifecycle: admission ladder in one batch (fake pool)" `Quick
        test_lifecycle_ladder;
      Alcotest.test_case "lifecycle: deadline fires at t0 + d (fake clock)" `Quick
        test_lifecycle_deadline;
      Alcotest.test_case "lifecycle: replies in request order" `Quick test_lifecycle_in_order;
      Alcotest.test_case "lifecycle: shutdown flush releases every admission" `Quick
        test_lifecycle_shutdown_flush;
      Alcotest.test_case "HOST:PORT parser and address resolver" `Quick test_host_port;
      Alcotest.test_case "e2e: perf and faults plan under the spec's selection" `Quick
        test_e2e_perf_faults_selection;
    ] )
