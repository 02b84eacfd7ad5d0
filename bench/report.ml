(* What the bench sections share: the run's vector count and seed, section
   headers, empty-safe percentiles, count tables, the no-EE/EE simulation
   pair, BENCH_*.json writing, the multi-core gate and FAIL exits. *)

module Engine = Ee_engine.Engine
module Itc99 = Ee_bench_circuits.Itc99
module Json = Ee_export.Json
module Sim = Ee_sim.Sim

let vectors = ref 100

let seed = 2002

let section title = Printf.printf "\n=== %s ===\n%!" title

let suite_spec () = Engine.default_spec |> Engine.with_vectors !vectors |> Engine.with_seed seed

(* The ITC99 benchmarks; [fast] leaves out the processors b14 and b15. *)
let itc99 ~fast =
  List.filter
    (fun (b : Itc99.benchmark) -> not (fast && List.mem b.Itc99.id [ "b14"; "b15" ]))
    Itc99.all

(* A percentile of a sample, 0 for an empty one. *)
let pct a q = if Array.length a = 0 then 0. else Ee_util.Stats.percentile a q

(* {n, p50, ...} at the percentiles [qs]; null for an empty sample. *)
let pct_obj ?(qs = [ 50.; 90.; 99. ]) a =
  if Array.length a = 0 then Json.Null
  else
    Json.Obj
      (("n", Json.Int (Array.length a))
      :: List.map (fun q -> (Printf.sprintf "p%.0f" q, Json.Float (pct a q))) qs)

(* Count tables: [bump] adds one under a key, [count_list] lists a table, and
   [merge_counts] sums (key, count) lists into one sorted by key. *)
let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let count_list tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

let merge_counts lists =
  let tbl = Hashtbl.create 8 in
  List.iter
    (List.iter (fun (k, n) ->
         Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k))))
    lists;
  List.sort compare (count_list tbl)

let counts_obj l = Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) l)

(* A LUT netlist as a PL netlist, and its Eq. 1 EE version with the
   synthesis report. *)
let ee_pl nl =
  let pl = Ee_phased.Pl.of_netlist nl in
  let pl_ee, report = Ee_core.Synth.run pl in
  (pl, pl_ee, report)

(* The no-EE and the EE netlist simulated on the same random vectors. *)
let sim_pair ?(vectors = !vectors) pl pl_ee =
  let base = Sim.run_random pl ~vectors ~seed in
  (base, Sim.run_random pl_ee ~vectors ~seed)

let settle_gain (base : Sim.run) (ee : Sim.run) =
  Ee_util.Stats.percent_change ~before:base.Sim.avg_settle_time ~after:ee.Sim.avg_settle_time

(* Table cells: a no-EE and an EE delay, and the EE gain. *)
let gain_cells before after =
  let f = Printf.sprintf "%.2f" in
  [ f before; f after; Printf.sprintf "%.1f%%" (Ee_util.Stats.percent_change ~before ~after) ]

(* Write a BENCH file into the working directory and say so. *)
let write_bench ?(note = "") file text =
  Out_channel.with_open_text file (fun oc -> output_string oc text);
  Printf.printf "wrote %s%s\n" file note

let write_json ?note file json = write_bench ?note file (Json.to_string json ^ "\n")

(* Replace (or append) the [key] section of the JSON object in [file]. *)
let merge_section ?note file key json =
  let fields =
    match Json.parse (In_channel.with_open_text file In_channel.input_all) with
    | Ok (Json.Obj fields) -> List.filter (fun (k, _) -> k <> key) fields
    | Ok _ | Error _ | (exception Sys_error _) -> []
  in
  write_json ?note file (Json.Obj (fields @ [ (key, json) ]))

let cores () = Domain.recommended_domain_count ()

(* Speed and availability gates bite only where parallelism can. *)
let gate_enforced () = cores () >= 2

let fail msg =
  Printf.printf "FAIL: %s\n" msg;
  exit 1

(* Print every failure, then exit 1 if there was one. *)
let fail_all msgs =
  List.iter (Printf.printf "FAIL: %s\n") msgs;
  if msgs <> [] then exit 1
