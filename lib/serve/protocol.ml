module Json = Ee_export.Json
module Engine = Ee_engine.Engine

type request =
  | Synth of { bench : string; spec : Engine.spec; search : bool }
  | Import of {
      text : string;
      format : Ee_frontend.Frontend.format option;
      remap : bool;
      search : bool;
      spec : Engine.spec;
    }
  | Perf of { bench : string; spec : Engine.spec; waves : int }
  | Faults of { bench : string; spec : Engine.spec; waves : int }
  | Stats
  | Health
  | Ping
  | Sleep of float
  | Shutdown

type envelope = {
  id : Json.t;
  deadline_s : float option;
  req : request;
}

let cmd_name = function
  | Synth _ -> "synth"
  | Import _ -> "import"
  | Perf _ -> "perf"
  | Faults _ -> "faults"
  | Stats -> "stats"
  | Health -> "health"
  | Ping -> "ping"
  | Sleep _ -> "sleep"
  | Shutdown -> "shutdown"

(* Every [cmd_name], as [request_of_json] accepts it. *)
let cmd_names =
  [ "synth"; "import"; "perf"; "faults"; "stats"; "health"; "ping"; "sleep"; "shutdown" ]

(* -------------------------------------------------------------------- *)
(* Decoding                                                             *)
(* -------------------------------------------------------------------- *)

let ( let* ) = Result.bind

let field_float j name =
  match Json.member name j with
  | None -> Ok None
  | Some v -> (
      match Json.to_float v with
      | Some f -> Ok (Some f)
      | None -> Error (Printf.sprintf "field %S must be a number" name))

let field_int j name =
  match Json.member name j with
  | None -> Ok None
  | Some v -> (
      match Json.to_int v with
      | Some i -> Ok (Some i)
      | None -> Error (Printf.sprintf "field %S must be an integer" name))

let field_bool j name =
  match Json.member name j with
  | None -> Ok None
  | Some v -> (
      match Json.to_bool v with
      | Some b -> Ok (Some b)
      | None -> Error (Printf.sprintf "field %S must be a boolean" name))

let field_string j name =
  match Json.member name j with
  | None -> Ok None
  | Some v -> (
      match Json.to_string_opt v with
      | Some s -> Ok (Some s)
      | None -> Error (Printf.sprintf "field %S must be a string" name))

(* The most input vectors a request may ask for, ten times Table 3's 400:
   the bound keeps one request from tying up a worker and allocating
   vectors without limit. *)
let max_vectors = 4000

(* An error naming the field when its given value fails [ok]. *)
let check_float name ok what = function
  | Some f when not (ok f) -> Error (Printf.sprintf "%S must be %s" name what)
  | _ -> Ok ()

let spec_of_json j =
  let set f = function Some v -> f v | None -> Fun.id in
  let* threshold = field_float j "threshold" in
  let* coverage_only = field_bool j "coverage_only" in
  let* min_coverage = field_float j "min_coverage" in
  let* share_triggers = field_bool j "share_triggers" in
  let* vectors = field_int j "vectors" in
  let* seed = field_int j "seed" in
  let* gate_delay = field_float j "gate_delay" in
  let* ee_overhead = field_float j "ee_overhead" in
  let* selection_name = field_string j "selection" in
  let* selection =
    match selection_name with
    | None -> Ok None
    | Some s -> (
        match Engine.selection_of_string s with
        | Some sel -> Ok (Some sel)
        | None ->
            Error
              (Printf.sprintf
                 "unknown selection %S (use \"eq1\", \"mcr\" or \"search\")" s))
  in
  let* () =
    match vectors with
    | Some v when v <= 0 || v > max_vectors ->
        Error (Printf.sprintf "\"vectors\" must be in 1..%d" max_vectors)
    | _ -> Ok ()
  in
  (* A wire value such as 1e999 decodes to infinity.  Non-finite timing
     makes every delay NaN or infinite, and a negative EE overhead reports
     a speedup no circuit delivers. *)
  let* () =
    check_float "gate_delay" (fun f -> Float.is_finite f && f > 0.) "finite and positive"
      gate_delay
  in
  let* () =
    check_float "ee_overhead" (fun f -> Float.is_finite f && f >= 0.) "finite and >= 0"
      ee_overhead
  in
  let* () = check_float "threshold" (fun f -> not (Float.is_nan f)) "a number" threshold in
  let* () =
    check_float "min_coverage" (fun f -> not (Float.is_nan f)) "a number" min_coverage
  in
  let* lut_k = field_int j "lut_k" in
  let* () =
    match lut_k with
    | Some k when k < 4 || k > 8 -> Error "\"lut_k\" must be in 4..8"
    | _ -> Ok ()
  in
  Ok
    (Engine.default_spec
    |> set Engine.with_threshold threshold
    |> set Engine.with_coverage_only coverage_only
    |> set Engine.with_min_coverage min_coverage
    |> set Engine.with_share_triggers share_triggers
    |> set Engine.with_vectors vectors
    |> set Engine.with_seed seed
    |> set Engine.with_gate_delay gate_delay
    |> set Engine.with_ee_overhead ee_overhead
    |> set Engine.with_selection selection
    |> set Engine.with_lut_k lut_k)

(* The most waves a [perf] or [faults] request may ask for, ten times the
   larger default: the bound keeps one request from tying up a worker and
   allocating input vectors without limit. *)
let max_waves = 2400

let waves_of_json j ~default =
  let* waves = field_int j "waves" in
  match waves with
  | None -> Ok default
  | Some w when w < 1 || w > max_waves ->
      Error (Printf.sprintf "\"waves\" must be in 1..%d" max_waves)
  | Some w -> Ok w

let bench_of_json j =
  let* bench = field_string j "bench" in
  match bench with
  | Some b -> Ok b
  | None -> Error "missing \"bench\" field"

let import_format = function
  | None | Some "auto" -> Ok None
  | Some s -> (
      match Ee_frontend.Frontend.format_of_string s with
      | Some f -> Ok (Some f)
      | None ->
          Error
            (Printf.sprintf "unknown format %S (use \"auto\", \"blif\", \"aag\" or \"aig\")" s))

let request_of_json j =
  let* cmd =
    match Json.member "cmd" j with
    | Some (Json.String c) -> Ok c
    | Some _ -> Error "field \"cmd\" must be a string"
    | None -> Error "missing \"cmd\" field"
  in
  match cmd with
  | "synth" ->
      let* () =
        if Json.member "blif" j = None then Ok ()
        else
          Error
            "synth takes no inline \"blif\"; send the netlist with \"import\" \
             (\"format\":\"blif\",\"remap\":false)"
      in
      let* spec = spec_of_json j in
      let* bench = bench_of_json j in
      let* search = field_bool j "search" in
      Ok (Synth { bench; spec; search = Option.value search ~default:false })
  | "import" ->
      let* spec = spec_of_json j in
      let* text = field_string j "text" in
      let* text =
        match text with
        | None -> Error "import needs a \"text\" field with the file contents"
        | Some t -> Ok t
      in
      let* encoding = field_string j "encoding" in
      let* text =
        match encoding with
        | None | Some "none" -> Ok text
        | Some "base64" -> Ee_util.Base64.decode text
        | Some e -> Error (Printf.sprintf "unknown encoding %S (use \"base64\")" e)
      in
      let* fmt_name = field_string j "format" in
      let* format = import_format fmt_name in
      let* remap = field_bool j "remap" in
      let* search = field_bool j "search" in
      let search = Option.value search ~default:false in
      Ok (Import { text; format; remap = Option.value remap ~default:true; search; spec })
  | "perf" ->
      let* spec = spec_of_json j in
      let* bench = bench_of_json j in
      let* waves = waves_of_json j ~default:240 in
      Ok (Perf { bench; spec; waves })
  | "faults" ->
      let* spec = spec_of_json j in
      let* bench = bench_of_json j in
      let* waves = waves_of_json j ~default:16 in
      Ok (Faults { bench; spec; waves })
  | "stats" -> Ok Stats
  | "health" -> Ok Health
  | "ping" -> Ok Ping
  | "sleep" ->
      let* s = field_float j "seconds" in
      Ok (Sleep (Option.value s ~default:0.1))
  | "shutdown" -> Ok Shutdown
  | c -> Error (Printf.sprintf "unknown cmd %S" c)

let parse_line line =
  let* j = Json.parse line in
  let* req = request_of_json j in
  let* deadline_s = field_float j "deadline_s" in
  let* () =
    match deadline_s with
    | Some d when d <= 0. -> Error "\"deadline_s\" must be positive"
    | _ -> Ok ()
  in
  let id = Option.value (Json.member "id" j) ~default:Json.Null in
  Ok { id; deadline_s; req }

let rejected_echo line =
  match Json.parse line with
  | Ok (Json.Obj _ as j) ->
      let cmd =
        match Json.member "cmd" j with
        | Some (Json.String c) when List.mem c cmd_names -> c
        | _ -> "?"
      in
      (cmd, Option.value (Json.member "id" j) ~default:Json.Null)
  | _ -> ("?", Json.Null)

(* -------------------------------------------------------------------- *)
(* Encoding                                                             *)
(* -------------------------------------------------------------------- *)

let spec_fields (spec : Engine.spec) =
  let d = Engine.default_spec in
  let keep name v = Some (name, v) in
  List.filter_map Fun.id
    [
      (if spec.threshold <> d.threshold then keep "threshold" (Json.Float spec.threshold) else None);
      (if spec.coverage_only <> d.coverage_only then keep "coverage_only" (Json.Bool spec.coverage_only) else None);
      (if spec.min_coverage <> d.min_coverage then keep "min_coverage" (Json.Float spec.min_coverage) else None);
      (if spec.share_triggers <> d.share_triggers then keep "share_triggers" (Json.Bool spec.share_triggers) else None);
      (if spec.vectors <> d.vectors then keep "vectors" (Json.Int spec.vectors) else None);
      (if spec.seed <> d.seed then keep "seed" (Json.Int spec.seed) else None);
      (if spec.gate_delay <> d.gate_delay then keep "gate_delay" (Json.Float spec.gate_delay) else None);
      (if spec.ee_overhead <> d.ee_overhead then keep "ee_overhead" (Json.Float spec.ee_overhead) else None);
      (if spec.selection <> d.selection then
         keep "selection" (Json.String (Engine.selection_to_string spec.selection))
       else None);
      (if spec.lut_k <> d.lut_k then keep "lut_k" (Json.Int spec.lut_k) else None);
    ]

let search_field search = if search then [ ("search", Json.Bool true) ] else []

let envelope_to_json env =
  let base = [ ("cmd", Json.String (cmd_name env.req)) ] in
  let id = match env.id with Json.Null -> [] | id -> [ ("id", id) ] in
  let deadline =
    match env.deadline_s with Some d -> [ ("deadline_s", Json.Float d) ] | None -> []
  in
  let body =
    match env.req with
    | Synth { bench; spec; search } ->
        (("bench", Json.String bench) :: search_field search) @ spec_fields spec
    | Import { text; format; remap; search; spec } ->
        (* Binary payloads (the delta-coded AIGER AND section) cannot ride
           in a JSON string; base64 them.  Printable text goes verbatim. *)
        let binary =
          String.exists
            (fun c -> (c < ' ' && c <> '\n' && c <> '\t' && c <> '\r') || c > '\x7e')
            text
        in
        (if binary then
           [
             ("text", Json.String (Ee_util.Base64.encode text));
             ("encoding", Json.String "base64");
           ]
         else [ ("text", Json.String text) ])
        @ (match format with
          | None -> []
          | Some f ->
              [ ("format", Json.String (Ee_frontend.Frontend.format_to_string f)) ])
        @ (if remap then [] else [ ("remap", Json.Bool false) ])
        @ search_field search @ spec_fields spec
    | Perf { bench; spec; waves } ->
        [ ("bench", Json.String bench); ("waves", Json.Int waves) ] @ spec_fields spec
    | Faults { bench; spec; waves } ->
        [ ("bench", Json.String bench); ("waves", Json.Int waves) ] @ spec_fields spec
    | Stats | Health | Ping | Shutdown -> []
    | Sleep s -> [ ("seconds", Json.Float s) ]
  in
  Json.Obj (base @ id @ deadline @ body)

let take_lines b ~from =
  let len = Buffer.length b in
  let lines = ref [] and start = ref 0 in
  for i = from to len - 1 do
    if Buffer.nth b i = '\n' then begin
      let stop = if i > !start && Buffer.nth b (i - 1) = '\r' then i - 1 else i in
      if stop > !start then lines := Buffer.sub b !start (stop - !start) :: !lines;
      start := i + 1
    end
  done;
  if !start = len then Buffer.reset b
  else if !start > 0 then begin
    let rest = Buffer.sub b !start (len - !start) in
    Buffer.clear b;
    Buffer.add_string b rest
  end;
  List.rev !lines

let ok_response ~id ~cmd ~cached ~elapsed_ms result =
  Json.to_string
    (Json.Obj
       ([ ("status", Json.String "ok"); ("cmd", Json.String cmd) ]
       @ (match id with Json.Null -> [] | id -> [ ("id", id) ])
       @ [
           ("cached", Json.Bool cached);
           ("elapsed_ms", Json.Float elapsed_ms);
           ("result", result);
         ]))

let error_response ?retry_after_s ~id ~cmd ~code message =
  Json.to_string
    (Json.Obj
       ([ ("status", Json.String "error"); ("cmd", Json.String cmd) ]
       @ (match id with Json.Null -> [] | id -> [ ("id", id) ])
       @ [ ("error", Json.String code); ("message", Json.String message) ]
       @
       match retry_after_s with
       | Some s -> [ ("retry_after_s", Json.Float s) ]
       | None -> []))
