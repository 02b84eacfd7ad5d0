(** The wire protocol of [ee_synthd]: one JSON object per line in each
    direction (NDJSON), over a Unix-domain or TCP stream socket.

    {2 Requests}

    Every request is an object with a ["cmd"] field and optional ["id"]
    (any JSON value, echoed back verbatim) and ["deadline_s"] (per-request
    compute deadline) fields:

    {v
    {"cmd":"synth","bench":"b04","vectors":100,"seed":2002}
    {"cmd":"import","text":".model m\n...","format":"auto"}
    {"cmd":"import","text":"YWlnIDc...","encoding":"base64","format":"aig"}
    {"cmd":"perf","bench":"b01","waves":240}
    {"cmd":"faults","bench":"b01","waves":16}
    {"cmd":"stats"}
    {"cmd":"health"}
    {"cmd":"ping"}
    {"cmd":"sleep","seconds":0.5}
    {"cmd":"shutdown"}
    v}

    [synth], [import], [perf] and [faults] accept the spec knobs of
    {!Ee_engine.Engine.spec} as flat optional fields ([threshold],
    [coverage_only], [min_coverage], [share_triggers], [vectors], [seed],
    [gate_delay], [ee_overhead], [selection] = ["eq1"]|["mcr"]|["search"],
    [lut_k]); omitted knobs default to {!Ee_engine.Engine.default_spec}.
    [vectors] must lie in 1..4000, [gate_delay] must be finite and
    positive, [ee_overhead] finite and non-negative, [lut_k] in 4..8, and
    [threshold] and [min_coverage] must not be NaN.  [perf] and [faults]
    also take ["waves"] (defaults 240 and 16), which must lie in 1..2400.
    Any other value is a [bad_request].

    [perf] and [faults] build the benchmark's EE netlist under the whole
    spec ({!Ee_engine.Engine.build}), [selection] included: with
    ["selection":"mcr"] they analyze and inject faults into the MCR plan's
    netlist, as [synth] measures it.

    [synth] measures the ITC99 benchmark named by ["bench"].  It takes no
    netlist text: a request with a ["blif"] field is a [bad_request] that
    points at [import].

    [import] is the one request for user netlists: ["text"] holds the file
    contents (full-dialect BLIF or ASCII/binary AIGER), optionally
    base64-coded (["encoding":"base64"] — required for binary AIGER, since
    JSON strings cannot carry arbitrary bytes).  ["format"] is ["auto"]
    (default, sniffs the [aag]/[aig] magic), ["blif"], ["aag"] or ["aig"];
    ["remap"] (default [true]) re-covers the parsed netlist with the
    delay-driven cut mapper ({!Ee_frontend.Remap}) before PL mapping, EE
    synthesis and simulation.  The reply holds the imported and mapped
    netlist shapes and, under ["synth"], the row [synth] reports for a
    benchmark.

    [synth] and [import] take ["search"] (default [false]): it appends the
    trigger-search section (shared-trigger λ table and wide-LUT cone
    summary at [lut_k]) to the synth row, and is part of the cache key.

    [sleep] occupies a
    worker for the given time — a debugging aid for exercising deadlines
    and admission control without burning CPU.  [health] is the liveness
    probe used by the [ee_fleet] supervisor: answered inline by the event
    loop (never queued behind compute work) with a compact snapshot —
    pid, uptime, per-shard queue depth, pool backlog, cache counters —
    so a wedged worker pool still answers it while a wedged event loop
    does not.

    {2 Responses}

    {v
    {"status":"ok","cmd":"synth","id":...,"cached":false,"elapsed_ms":12.3,"result":{...}}
    {"status":"error","cmd":"synth","id":...,"error":"overloaded","message":"..."}
    v}

    Error codes: [bad_request] (malformed JSON, unknown cmd, bad netlist),
    [not_found] (unknown benchmark id), [throttled] (graded back-pressure:
    the shard is past its throttle watermark and the request is
    non-cacheable — retry after the accompanying ["retry_after_s"] hint),
    [shed] (past the shed watermark: non-cacheable work is dropped to
    protect cacheable throughput; back off harder than the hint),
    [overloaded] (hard admission bound reached; nothing is admitted),
    [deadline_exceeded] (the deadline elapsed first — the computation
    still completes in the background and warms the cache), [internal]
    (the computation raised), [shutting_down].  [throttled], [shed] and
    [overloaded] responses carry a ["retry_after_s"] float estimating
    when capacity frees up.  Responses on one connection always arrive
    in request order. *)

type request =
  | Synth of { bench : string; spec : Ee_engine.Engine.spec; search : bool }
  | Import of {
      text : string;  (** Decoded file contents (may be binary AIGER). *)
      format : Ee_frontend.Frontend.format option;  (** [None] = auto-detect. *)
      remap : bool;
      search : bool;
      spec : Ee_engine.Engine.spec;
    }
  | Perf of { bench : string; spec : Ee_engine.Engine.spec; waves : int }
  | Faults of { bench : string; spec : Ee_engine.Engine.spec; waves : int }
  | Stats
  | Health
  | Ping
  | Sleep of float
  | Shutdown

type envelope = {
  id : Ee_export.Json.t;  (** [Null] when the client sent none. *)
  deadline_s : float option;
  req : request;
}

val cmd_name : request -> string

val import_format : string option -> (Ee_frontend.Frontend.format option, string) result
(** An [import]'s ["format"] field, and [ee_synth client --format]: absent
    or ["auto"] is [None] (auto-detect), a name
    {!Ee_frontend.Frontend.format_of_string} accepts is that format, and
    anything else is the error [unknown format "x" (use "auto", "blif",
    "aag" or "aig")]. *)

val parse_line : string -> (envelope, string) result
(** Decode one request line. *)

val rejected_echo : string -> string * Ee_export.Json.t
(** The ["cmd"] and ["id"] a [bad_request] reply to a line {!parse_line}
    rejected echoes: when the line is a JSON object, its ["cmd"] if that
    names a request (["?"] otherwise) and its ["id"] ([Null] when absent);
    ["?"] and [Null] for any other line. *)

val take_lines : Buffer.t -> from:int -> string list
(** [take_lines b ~from] removes every complete line from the front of [b]
    and returns them in order, a trailing ['\r'] stripped and empty lines
    dropped; the unfinished tail stays in [b].  Only bytes from [from] on
    are scanned for newlines: a reader that appends each chunk it reads
    passes the length [b] had before the chunk, so framing a stream costs
    time linear in its length.  Both ends of a connection frame with it. *)

val envelope_to_json : envelope -> Ee_export.Json.t
(** Encode a request (the client side).  Spec knobs that equal the default
    spec's are omitted. *)

val ok_response :
  id:Ee_export.Json.t ->
  cmd:string ->
  cached:bool ->
  elapsed_ms:float ->
  Ee_export.Json.t ->
  string
(** A single-line ["status":"ok"] response carrying [result]. *)

val error_response :
  ?retry_after_s:float ->
  id:Ee_export.Json.t ->
  cmd:string ->
  code:string ->
  string ->
  string
(** A single-line ["status":"error"] response.  [retry_after_s] adds the
    back-pressure hint field carried by [throttled]/[shed]/[overloaded]. *)
