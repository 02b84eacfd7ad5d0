(** The repo's only BLIF reader: it reads back what
    {!Ee_export.Blif.to_blif} writes, and the BLIF that real tools dump.
    The daemon's [synth {blif}] and [import] requests both parse with it.
    It accepts:

    - multiple [.model] blocks with [.subckt] instantiation, flattened
      recursively into one netlist (internal signals of an instance are
      namespaced; instantiation cycles are reported);
    - [.names] of {e any} width up to {!Sop.max_vars}: at most four inputs
      becomes one LUT4, wider covers are decomposed into LUT4 networks
      through the cube/ISOP machinery ({!Sop});
    - ['\\'] line continuations, [#] comments, CRLF line endings;
    - zero-input constant covers (a bare ["0"]/["1"] line, or no line at
      all for constant false);
    - don't-care ['-'] columns in cube input planes, ON-set and OFF-set
      cover polarities;
    - [.latch] in its 2/3/4/5-token forms (type and control tokens are
      accepted and ignored; init values 2 and 3 read as 0);
    - timing/area annotations ([.clock], [.area], [.delay],
      [.wire_load_slope], [.input_arrival], …) ignored, [.exdc] don't-care
      networks skipped;
    - percent-escaped signal names ({!Ee_export.Blif.unescape_name}).

    Constructs that change semantics and cannot be honoured ([.gate],
    [.mlatch], [.search]) are rejected with a line number, as is a signal
    with two drivers (two [.names]/[.latch] outputs, or a primary input
    that is also one of them). *)

exception Parse_error of int * string

val of_string : ?top:string -> string -> Ee_netlist.Netlist.t
(** Parse and flatten.  [top] selects the root model by name (default: the
    first model in the file).  Raises {!Parse_error} (line, message) on
    malformed input and [Invalid_argument] from netlist validation. *)

val parse : ?top:string -> string -> (Ee_netlist.Netlist.t, string) result
(** {!of_string} with failures captured as messages. *)
