(* Spans recorded by the benchmark around its calls into each layer.

   Spans stay in memory while the workload runs and are written out once at
   the end.  Each span knows the span that was open when it started, so a
   layer's self time is its duration minus that of its children.  Minor
   words come from [Gc.minor_words], which counts the calling domain only;
   every traced workload runs its layers on one domain, so the counts are
   exact. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** -1 at top level. *)
  start : float;  (** Seconds since the trace was enabled. *)
  mutable stop : float;
  mutable mwords : float;  (** Minor words allocated inside the span. *)
}

(* Monotonic seconds with nanosecond resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Spans are recorded while [active]; a traced run switches it per pass. *)
let active = ref false
let epoch = ref 0.
let spans : t list ref = ref []
let open_stack : t list ref = ref []
let next_id = ref 0

let enable () =
  active := true;
  epoch := now ();
  spans := [];
  open_stack := [];
  next_id := 0

let with_ name f =
  if not !active then f ()
  else begin
    let parent = match !open_stack with s :: _ -> s.id | [] -> -1 in
    let w0 = Gc.minor_words () in
    let start = now () -. !epoch in
    let s = { id = !next_id; name; parent; start; stop = 0.; mwords = 0. } in
    incr next_id;
    open_stack := s :: !open_stack;
    let close () =
      s.stop <- now () -. !epoch;
      s.mwords <- Gc.minor_words () -. w0;
      open_stack := List.tl !open_stack;
      spans := s :: !spans
    in
    Fun.protect ~finally:close f
  end

(* A span timed by the caller, such as a request to a daemon, whose work
   happens in another process; its words are not counted. *)
let record name ~start ~stop =
  if !active then begin
    let parent = match !open_stack with s :: _ -> s.id | [] -> -1 in
    let start = start -. !epoch and stop = stop -. !epoch in
    let s = { id = !next_id; name; parent; start; stop; mwords = 0. } in
    spans := s :: !spans;
    incr next_id
  end

let all () = List.rev !spans

(* Summed duration (ms) and minor words (millions) of the spans named [name]. *)
let total name =
  List.fold_left
    (fun (ms, mw) s ->
      if s.name = name then (ms +. ((s.stop -. s.start) *. 1000.), mw +. (s.mwords /. 1e6))
      else (ms, mw))
    (0., 0.) !spans

let write path =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"id\": %d, \"name\": %S, \"parent\": %d, \"start_s\": %.9f, \"end_s\": %.9f, \
         \"minor_words\": %.0f}\n"
        (if i = 0 then "" else ",")
        s.id s.name s.parent s.start s.stop s.mwords)
    (all ());
  output_string oc "]\n";
  close_out oc
