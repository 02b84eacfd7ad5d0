(* Metric arithmetic shared by every workload, kept apart from the
   workloads so [self_test] can check it without running one. *)

type metric = { name : string; value : float; unit_ : string; samples : int }

let valid_name s =
  s <> ""
  && String.length s <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let metric ?(samples = 1) name unit_ value =
  if not (valid_name name) then invalid_arg ("Metrics.metric: bad metric name " ^ name);
  { name; value; unit_; samples }

(* Rank of the nearest-rank [p]th percentile in a sample of [n]; the slack
   absorbs float error such as 99.9 /. 100. *. 10_000. > 9990. *)
let rank n p = int_of_float (Float.ceil ((p /. 100. *. float_of_int n) -. 1e-9))

(* Nearest-rank percentile: the smallest sample with at least [p] % of the
   sample at or below it. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Metrics.percentile: empty sample";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  sorted.(max 0 (min (n - 1) (rank n p - 1)))

let median xs = percentile xs 50.

(* Samples strictly beyond the nearest-rank [p]th percentile. *)
let beyond n p = n - rank n p

(* The tail rule: the highest of the usual percentiles that still has at
   least ten samples beyond it.  [None] below twenty samples, where even the
   median has fewer than ten above it. *)
let tail_percentile n =
  List.find_opt (fun p -> beyond n p >= 10) [ 99.9; 99.; 90.; 50. ]

(* Every workload reports one fixed tail percentile so that a faster
   commit, which collects more samples in the same seconds, is not charged
   with a higher percentile.  The percentile is chosen from the sample count
   the workload reaches; [tail_ok] says whether this run reached it. *)
let tail_ok n p = match tail_percentile n with Some q -> q >= p | None -> false

(* Operations attempted and failed.  A refused or errored request is a
   failure: it counts in [attempted] and never contributes a latency. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let record t ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

let failed_ratio t =
  if t.attempted = 0 then 1. else float_of_int t.failed /. float_of_int t.attempted

(* Peak resident set of a process, from /proc/<pid>/status (VmHWM, kB). *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> failwith ("no VmHWM in " ^ path)
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_float x.value) x.unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)

let self_test () =
  let fails = ref [] in
  let check name ok = if not ok then fails := name :: !fails in
  let seq n = Array.init n (fun i -> float_of_int (i + 1)) in
  (* Tail rule. *)
  check "tail: 19 samples have no tail" (tail_percentile 19 = None);
  check "tail: 20 samples give p50" (tail_percentile 20 = Some 50.);
  check "tail: 99 samples give p50" (tail_percentile 99 = Some 50.);
  check "tail: 100 samples give p90" (tail_percentile 100 = Some 90.);
  check "tail: 999 samples give p90" (tail_percentile 999 = Some 90.);
  check "tail: 1000 samples give p99" (tail_percentile 1000 = Some 99.);
  check "tail: 10000 samples give p99.9" (tail_percentile 10_000 = Some 99.9);
  check "tail_ok: p99 needs 1000" (tail_ok 1000 99. && not (tail_ok 999 99.));
  check "tail_ok: p90 at 5000" (tail_ok 5000 90.);
  check "percentile: p90 of 1..100" (percentile (seq 100) 90. = 90.);
  check "percentile: p99 of 1..1000" (percentile (seq 1000) 99. = 990.);
  check "percentile: median of 1..5" (median (seq 5) = 3.);
  check "percentile: 10 beyond p90 of 100" (beyond 100 90. = 10);
  (* Failure accounting. *)
  let t = tally () in
  List.iter (record t) [ true; true; false; true ];
  check "tally: refused counts as attempted and failed" (t.attempted = 4 && t.failed = 1);
  check "failed_ratio: 1/4" (failed_ratio t = 0.25);
  check "failed_ratio: nothing attempted is total failure" (failed_ratio (tally ()) = 1.);
  (* Names. *)
  check "name: dotted layer metric" (valid_name "server.wait_ms.warm.p99");
  check "name: space rejected" (not (valid_name "wall s"));
  check "name: slash rejected" (not (valid_name "req/s"));
  check "name: leading dot rejected" (not (valid_name ".ms"));
  check "name: empty rejected" (not (valid_name ""));
  check "name: 65 letters rejected" (not (valid_name (String.make 65 'a')));
  check "metric: bad name raises"
    (match metric "p99 ms" "ms" 1. with _ -> false | exception Invalid_argument _ -> true);
  (* Output shape. *)
  check "json: integral float keeps a decimal point"
    (result_line ~correct:true ~attempted:1 ~failed:0 [ metric "x" "s" 2. ]
    = "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
       {\"x\": {\"value\": 2.0, \"unit\": \"s\"}}}");
  List.rev !fails
