(** BLIF (Berkeley Logic Interchange Format) writer for LUT4 netlists, and
    the signal-name escaping shared by every BLIF and AIGER reader and
    writer in the repo.

    The writer emits one [.model] with [.inputs], [.outputs], [.names]
    covers of at most four inputs, [.latch] with an initial value, and
    [.end].  Reading BLIF is [Ee_frontend.Blif_in]'s job. *)

val escape_name : string -> string
(** Deterministic percent-encoding of signal names that would not survive
    BLIF tokenization: spaces, tabs, ['#'], ['%'], ['\\'], ['"'], control
    and non-ASCII bytes are written as [%XX]; a leading ['.'] (which would
    read back as a directive) is encoded too, and the empty name becomes
    ["%"].  Names made only of safe characters are returned unchanged, so
    ordinary netlists export byte-identically to before. *)

val unescape_name : string -> string
(** Inverse of {!escape_name}: [unescape_name (escape_name s) = s] for
    every [s] (['%'] itself is always encoded, so no foreign collision can
    arise from our own output).  A ['%'] not followed by two hex digits is
    kept literally. *)

val to_blif : ?model:string -> Ee_netlist.Netlist.t -> string
(** LUT functions are written as irredundant prime covers of their ON-set
    (or their OFF-set when that cover is smaller, per BLIF convention).
    Latches use [re] (rising edge) with explicit reset values. *)
