(** Blocking NDJSON client for {!Server}. *)

type t

exception Timeout
(** Raised by {!recv_line} (and everything built on it) when no complete
    response line arrives within the receive timeout.  The connection is
    left open but mid-stream — callers should {!close} it rather than
    reuse it, since a late reply would desynchronise the pipeline. *)

val connect :
  ?retries:int -> ?retry_delay_s:float -> ?recv_timeout_s:float -> Server.address -> t
(** Connect to a running server.  Retries [retries] (default 0) times with
    [retry_delay_s] (default 0.1) between attempts — useful right after
    spawning a daemon.  Sets [TCP_NODELAY] on TCP connections.  Raises
    [Unix.Unix_error] when every attempt fails.

    [recv_timeout_s] bounds how long each {!recv_line} call waits for a
    complete line (default: wait forever, matching the historical
    behaviour).  The deadline covers the whole line, so a server
    trickling bytes cannot extend it. *)

val send_line : t -> string -> unit
(** Send one raw request line (no trailing newline) without waiting for
    the response — pipelining primitive; responses arrive in send order
    via {!recv_line}. *)

val recv_line : t -> string
(** Block for the next response line (framed by {!Protocol.take_lines}:
    a trailing ['\r'] is stripped and empty lines are skipped).  Raises
    [End_of_file] if the server closes the connection first, {!Timeout} if
    the receive timeout expires first. *)

val request_line : t -> string -> string
(** Send one raw request line (no trailing newline) and block for the one
    response line.  Raises [End_of_file] if the server closes the
    connection first, {!Timeout} on receive timeout. *)

val close : t -> unit
