module Json = Ee_export.Json

exception Timeout

type t = {
  fd : Unix.file_descr;
  chunk : Bytes.t; (* one read's bytes *)
  inbuf : Buffer.t; (* bytes read and not yet framed into lines *)
  mutable lines : string list; (* framed lines not yet returned *)
  recv_timeout_s : float option;
}

let connect ?(retries = 0) ?(retry_delay_s = 0.1) ?recv_timeout_s address =
  let domain, addr = Server.sockaddr address in
  let rec attempt left =
    let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () ->
        (* Pipelined single-line requests lose to Nagle otherwise. *)
        if domain = Unix.PF_INET then (
          try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
        let chunk = Bytes.create 65536 in
        { fd; chunk; inbuf = Buffer.create 4096; lines = []; recv_timeout_s }
    | exception Unix.Unix_error _ when left > 0 ->
        Unix.close fd;
        Unix.sleepf retry_delay_s;
        attempt (left - 1)
    | exception e ->
        Unix.close fd;
        raise e
  in
  attempt retries

let send_line t line =
  let data = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length data in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write t.fd data !off (len - !off)
  done

let recv_line t =
  (* One deadline per line, not per read: a server trickling bytes cannot
     stretch the wait past [recv_timeout_s]. *)
  let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) t.recv_timeout_s in
  let rec take () =
    match t.lines with
    | line :: rest ->
        t.lines <- rest;
        line
    | [] ->
        (match deadline with
        | Some d -> (
            let left = d -. Unix.gettimeofday () in
            if left <= 0. then raise Timeout;
            match Unix.select [ t.fd ] [] [] left with
            | [], _, _ -> raise Timeout
            | _ -> ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
        | None -> ());
        (match Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) with
        | 0 -> raise End_of_file
        | n ->
            let from = Buffer.length t.inbuf in
            Buffer.add_subbytes t.inbuf t.chunk 0 n;
            t.lines <- Protocol.take_lines t.inbuf ~from
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
            ());
        take ()
  in
  take ()

let request_line t line =
  send_line t line;
  recv_line t

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
