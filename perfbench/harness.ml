(* What every workload shares: the run configuration, the host-speed probe,
   the measured loop, set-up timing and the report a workload hands back to
   [Main]. *)

type config = {
  seed : int;
  seconds : float;
  trace : bool;
  out_dir : string;  (** Output directory for spans and the daemon socket. *)
}

type report = {
  tally : Metrics.tally;  (** Every operation and oracle check, failed or not. *)
  end_to_end : Metrics.metric list;
  per_layer : Metrics.metric list;  (** Filled by traced runs only. *)
  digest : string list;  (** Simulated statistics; identical for a seed. *)
}

let now = Span.now
let fail fmt = Printf.ksprintf (fun s -> Printf.printf "ORACLE FAIL: %s\n%!" s) fmt

(* Every pass of a workload must give the outputs of its first pass, which
   [first] keeps. *)
let same_as_first tally what first v =
  match !first with
  | None -> first := Some v
  | Some f ->
      Metrics.record tally (f = v);
      if f <> v then fail "%s: outputs differ between passes" what

(* Host speed.  The benchmark shares a few cores of a host whose speed
   drifts by 10-15 % from minute to minute, so that whole runs of the same
   code differ by that much.  [probe] times a fixed integer loop between
   timed operations: it allocates nothing, touches no memory beyond its
   registers and calls no repository code, so no change to the program can
   move it, while a slower host slows it too.  End-to-end times are scaled
   by [reference_probe_s] over the run's median probe. *)
let probes = ref []

(* Seconds spent in [probe] so far, left out of every timed region. *)
let probing = ref 0.

let probe () =
  let t0 = now () in
  let acc = ref 0 in
  for i = 1 to 300_000 do
    acc := ((!acc * 31) + i) land 0xffffff
  done;
  ignore (Sys.opaque_identity !acc);
  let dt = now () -. t0 in
  probes := dt :: !probes;
  probing := !probing +. dt

(* The median probe on the 2-vCPU VM the bounds were set on. *)
let reference_probe_s = 0.0006

(* Time [f], less any probe it ran, then probe once. *)
let time f =
  let t0 = now () and p0 = !probing in
  let v = f () in
  let dt = now () -. t0 -. (!probing -. p0) in
  probe ();
  (v, dt)

(* Repeat [pass] until [seconds] have elapsed (at least [min_passes]
   times); the duration of every pass, in order. *)
let measure ?(min_passes = 3) ~seconds pass =
  let t0 = now () in
  let rec go acc n =
    if n >= min_passes && now () -. t0 >= seconds then Array.of_list (List.rev acc)
    else
      let (), dt = time pass in
      go (dt :: acc) (n + 1)
  in
  go [] 0

(* Set-up is timed [repeats] times and reported as the median, the
   [setup_s] metric.  The value of the last repetition is kept; [between]
   disposes of the others, untimed. *)
let setup ?(between = ignore) ~repeats f =
  let rec go k times =
    let v, dt = time f in
    if k = 1 then
      let median = Metrics.median (Array.of_list (dt :: times)) in
      (v, Metrics.metric ~samples:repeats "setup_s" "s" median)
    else begin
      between v;
      go (k - 1) (dt :: times)
    end
  in
  go repeats []

(* The measured phase of a traced run alternates untraced and traced
   passes, so that drift over the run does not bias the tracing overhead
   (the difference between their medians).  Returns the traced pass count
   and the overhead metric. *)
let traced_measure cfg pass =
  Span.enable ();
  let plain = ref [] and traced = ref [] in
  let k = ref 0 in
  ignore
    (measure ~min_passes:4 ~seconds:cfg.seconds (fun () ->
         Span.active := !k mod 2 = 1;
         let (), dt = time pass in
         if !Span.active then traced := dt :: !traced else plain := dt :: !plain;
         incr k));
  Span.active := false;
  let plain = Metrics.median (Array.of_list !plain) in
  let n = List.length !traced in
  let overhead = (Metrics.median (Array.of_list !traced) -. plain) /. plain *. 100. in
  (n, Metrics.metric ~samples:n "trace.overhead_pct" "%" overhead)

(* Per-circuit latency of a batch workload: the mean of each circuit's
   samples.  Circuits differ in size by orders of magnitude, so percentiles
   over raw samples would jump between circuits from run to run; over
   per-circuit means a percentile stays on one circuit.  Host speed on a
   shared machine varies from second to second; a mean over the passes
   averages that out better than a median of a few samples. *)
let circuit_means samples =
  let keys = List.sort_uniq compare (List.map fst samples) in
  let of_key k = List.filter_map (fun (k', v) -> if k = k' then Some v else None) samples in
  Array.of_list (List.map (fun k -> Ee_util.Stats.mean (Array.of_list (of_key k))) keys)

(* The generic end-to-end metrics of a batch or served workload, every
   time scaled for host speed. *)
let timing_metrics ~(setup : Metrics.metric) ~passes ~ops ~op_ms ~tail_p ~rss =
  let n = Array.length op_ms and n_passes = Array.length passes in
  let total = Array.fold_left ( +. ) 0. passes in
  Printf.printf "passes: %s s\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") passes)));
  let probe_s = Metrics.median (Array.of_list !probes) in
  let scale = reference_probe_s /. probe_s in
  Printf.printf "host: probe p50 %.4f ms n=%d; times below are scaled by %.4f (unscaled: \
                 setup %.6g s, wall %.6g s)\n"
    (probe_s *. 1000.) (List.length !probes) scale setup.Metrics.value
    (total /. float_of_int n_passes);
  let total = total *. scale in
  Metrics.
    [
      { setup with value = setup.value *. scale };
      metric ~samples:n_passes "wall_s" "s" (total /. float_of_int n_passes);
      metric "peak_rss_mb" "MiB" rss;
      metric ~samples:ops "ops_per_s" "1/s" (float_of_int ops /. total);
      metric ~samples:n "p50_ms" "ms" (median op_ms *. scale);
      metric ~samples:n "tail_ms" "ms" (percentile op_ms tail_p *. scale);
    ]

let self_rss () = Metrics.peak_rss_mb "self"
let digest_hash lines = Digest.to_hex (Digest.string (String.concat "\n" lines))
