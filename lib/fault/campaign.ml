module Pl = Ee_phased.Pl
module Flat = Ee_phased.Flat
module Ledr = Ee_phased.Ledr
module Rail_sim = Ee_phased.Rail_sim
module Netlist = Ee_netlist.Netlist
module Mg = Ee_markedgraph.Marked_graph
module Delay_model = Ee_sim.Delay_model
module Prng = Ee_util.Prng

type outcome =
  | Masked
  | Detected of string
  | Deadlock of Rail_sim.stall
  | Wrong_output of { wave : int }

let outcome_class = function
  | Masked -> "masked"
  | Detected _ -> "detected"
  | Deadlock _ -> "deadlock"
  | Wrong_output _ -> "wrong-output"

let outcome_detail = function
  | Masked -> ""
  | Detected msg -> msg
  | Deadlock s -> Rail_sim.stall_to_string s
  | Wrong_output { wave } -> Printf.sprintf "first output mismatch at wave %d" wave

type record = { fault : Fault.t; outcome : outcome }

type schedule_check = { schedule : string; agrees : bool; early_total : int }

type report = {
  bench : string;
  pl_gates : int;
  waves : int;
  seed : int;
  records : record list;
  schedules : schedule_check list;
  masked : int;
  detected : int;
  deadlock : int;
  wrong_output : int;
}

let make_vectors ~width ~waves ~seed =
  let rng = Prng.create seed in
  List.init waves (fun _ -> Prng.bool_vector rng width)

let golden nl vectors =
  let st = ref (Netlist.initial_state nl) in
  List.map
    (fun vec ->
      let outs, st' = Netlist.step nl !st vec in
      st := st';
      outs)
    vectors

(* The one wave/classify loop: apply waves [from ..] to [sim] and classify
   the first departure from the golden outputs.  [settled w] says that after
   wave [w] the rest of the run is known to be fault-free. *)
let classify sim ~vectors ~expected ~from ~settled =
  let rec go wave =
    if wave = Array.length vectors then Masked
    else
      match Rail_sim.apply sim vectors.(wave) with
      | outs, _ ->
          if outs <> expected.(wave) then Wrong_output { wave }
          else if settled wave then Masked
          else go (wave + 1)
      | exception Rail_sim.Protocol_violation msg -> Detected msg
      | exception Rail_sim.Stalled s -> Deadlock s
  in
  go from

let cold pl ~vectors ~expected fault =
  classify (Rail_sim.create ~hooks:(Fault.hooks fault) pl) ~vectors ~expected ~from:0
    ~settled:(fun _ -> false)

let run_fault pl ~vectors ~expected fault =
  cold pl ~vectors:(Array.of_list vectors) ~expected:(Array.of_list expected) fault

(* [first_reads.(wire_index g rail value)] is the first wave of the
   fault-free run in which gate [g] latches [value] on that wire of its
   pair, or the wave count when it never does. *)
let wire_index gate rail value =
  (4 * gate) + (match rail with Fault.V -> 0 | Fault.T -> 2) + Bool.to_int value

let first_reads trace ~gates ~waves =
  let first = Array.make (4 * gates) waves in
  for wave = waves - 1 downto 0 do
    for gate = 0 to gates - 1 do
      let r = Rail_sim.traced_rails trace ~wave gate in
      first.(wire_index gate Fault.V r.Ledr.v) <- wave;
      first.(wire_index gate Fault.T r.Ledr.t) <- wave
    done
  done;
  first

(* The first wave in which the fault's hooks can act on the fault-free run.
   A stuck wire changes a latch only when its gate latches the other value
   on it. *)
let first_active ~first_reads fault =
  match fault with
  | Fault.Stuck_rail { gate; rail; value } -> first_reads.(wire_index gate rail (not value))
  | _ -> fst (Fault.window fault)

(* Fork from the trace of the fault-free unit-delay run, which matched the
   golden model.  Before the fault first acts, the faulted run is the
   fault-free one, so it starts from that wave's boundary and simulates
   only the gates the fault can reach; after the window's last wave, a
   state equal to the fault-free one has the fault-free future, which is
   correct. *)
let forked ~trace ~first_reads ~vectors ~expected fault =
  let first = first_active ~first_reads fault and last = snd (Fault.window fault) in
  let waves = Array.length vectors in
  if first >= waves then Masked
  else
    let sim =
      Rail_sim.fork trace ~wave:first ~site:(Fault.site fault) ~last ~hooks:(Fault.hooks fault)
    in
    classify sim ~vectors ~expected ~from:first ~settled:(fun w ->
        w >= last && w + 1 < waves && not (Rail_sim.diverged sim))

(* The adversarial schedules, quantized into Rail_sim round delays.  Unit
   delay is the reference; the others reorder firings as hostilely as the
   model allows.  A delay-insensitive netlist must produce identical
   outputs under all of them. *)
let delay_schedules pl ~seed =
  [
    ( "adversarial-ee",
      Delay_model.rounds_of_delays
        (Delay_model.adversarial_ee pl ~gate_delay:1.0 ~slowdown:4.0)
        ~resolution:3 );
    ( "extremal",
      Delay_model.rounds_of_delays
        (Delay_model.extremal pl ~gate_delay:1.0 ~spread:0.5 ~seed)
        ~resolution:4 );
    ( "jittered",
      Delay_model.rounds_of_delays
        (Delay_model.jittered pl ~gate_delay:1.0 ~spread:0.75 ~seed)
        ~resolution:4 );
  ]

(* Every wave runs, so [early_total] covers the whole run even after a
   mismatch; a raising schedule disagrees. *)
let check_schedule sim ~vectors ~expected schedule =
  let agrees = ref true and early_total = ref 0 in
  (try
     Array.iteri
       (fun w vec ->
         let outs, early = Rail_sim.apply sim vec in
         early_total := !early_total + early;
         if outs <> expected.(w) then agrees := false)
       vectors
   with Rail_sim.Protocol_violation _ | Rail_sim.Stalled _ -> agrees := false);
  { schedule; agrees = !agrees; early_total = !early_total }

let other_schedules pl ~vectors ~expected ~seed =
  List.map
    (fun (schedule, delays) ->
      check_schedule (Rail_sim.create ~delays pl) ~vectors ~expected schedule)
    (delay_schedules pl ~seed)

let check_schedules pl ~vectors ~expected ~seed =
  let vectors = Array.of_list vectors and expected = Array.of_list expected in
  check_schedule (Rail_sim.create pl) ~vectors ~expected "unit"
  :: other_schedules pl ~vectors ~expected ~seed

let run ?(waves = 16) ?(seed = 2002) ~bench pl nl =
  if waves < 1 then invalid_arg "Campaign.run: waves must be positive";
  let width = Array.length (Pl.source_ids pl) in
  let vectors = make_vectors ~width ~waves ~seed in
  let expected = Array.of_list (golden nl vectors) and vectors = Array.of_list vectors in
  (* The unit-delay schedule check is the fault-free run the faults fork
     from. *)
  let base = Rail_sim.create pl in
  let trace = Rail_sim.trace base in
  let unit = check_schedule base ~vectors ~expected "unit" in
  let outcome =
    if unit.agrees then
      let first_reads = first_reads trace ~gates:(Array.length (Pl.gates pl)) ~waves in
      forked ~trace ~first_reads ~vectors ~expected
    else cold pl ~vectors ~expected
  in
  let records =
    List.map (fun fault -> { fault; outcome = outcome fault }) (Fault.enumerate pl ~waves)
  in
  let count cls =
    List.length (List.filter (fun r -> outcome_class r.outcome = cls) records)
  in
  {
    bench;
    pl_gates = Array.length (Pl.gates pl);
    waves;
    seed;
    records;
    schedules = unit :: other_schedules pl ~vectors ~expected ~seed;
    masked = count "masked";
    detected = count "detected";
    deadlock = count "deadlock";
    wrong_output = count "wrong-output";
  }

(* Marked-graph-level token audit: corrupt the initial marking one arc at a
   time and let the token game plus the deadlock forensics explain what the
   corruption does to the abstract machine. *)

type token_verdict = Audit_live | Audit_dead of Mg.deadlock | Audit_unsafe of int

type token_audit = { arc : int; delta : int; verdict : token_verdict }

let token_audit ?(max_arcs = 64) pl ~steps ~seed =
  if max_arcs < 1 then invalid_arg "Campaign.token_audit: max_arcs must be positive";
  let mg = Flat.marked_graph (Flat.of_pl ~caller:"Campaign.token_audit" pl) in
  let arcs = Mg.arcs mg in
  let n = Array.length arcs in
  let stride = max 1 (n / max_arcs) in
  let audits = ref [] in
  let audit arc delta =
    let m = Mg.initial_marking mg in
    Mg.adjust_tokens m ~arc ~delta;
    let rng = Prng.create (seed + arc) in
    let verdict =
      match Mg.run_token_game_from mg m ~steps ~rng with
      | `Ok _ -> Audit_live
      | `Dead dm -> Audit_dead (Mg.diagnose mg dm)
      | `Unsafe (a, _) -> Audit_unsafe a
    in
    audits := { arc; delta; verdict } :: !audits
  in
  let picked = ref 0 in
  Array.iteri
    (fun a (_, _, tok) ->
      if a mod stride = 0 && !picked < max_arcs then begin
        incr picked;
        if tok > 0 then audit a (-1);
        audit a 1
      end)
    arcs;
  List.rev !audits

(* ------------------------------------------------------------------ *)
(* Rendering *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 32 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json r =
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\n  \"bench\": \"%s\",\n  \"pl_gates\": %d,\n  \"waves\": %d,\n  \"seed\": %d,\n"
    (json_escape r.bench) r.pl_gates r.waves r.seed;
  Printf.bprintf b
    "  \"summary\": { \"faults\": %d, \"masked\": %d, \"detected\": %d, \"deadlock\": %d, \"wrong_output\": %d },\n"
    (List.length r.records) r.masked r.detected r.deadlock r.wrong_output;
  Printf.bprintf b "  \"schedules\": [";
  List.iteri
    (fun i s ->
      Printf.bprintf b "%s\n    { \"schedule\": \"%s\", \"agrees\": %b, \"early_firings\": %d }"
        (if i = 0 then "" else ",")
        (json_escape s.schedule) s.agrees s.early_total)
    r.schedules;
  Printf.bprintf b "\n  ],\n  \"faults\": [";
  List.iteri
    (fun i rec_ ->
      Printf.bprintf b "%s\n    { \"fault\": \"%s\", \"class\": \"%s\", \"detail\": \"%s\" }"
        (if i = 0 then "" else ",")
        (json_escape (Fault.to_string rec_.fault))
        (outcome_class rec_.outcome)
        (json_escape (outcome_detail rec_.outcome)))
    r.records;
  Printf.bprintf b "\n  ]\n}\n";
  Buffer.contents b

let csv_escape s =
  if String.exists (function ',' | '"' | '\n' -> true | _ -> false) s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv r =
  let b = Buffer.create 4096 in
  Buffer.add_string b "bench,fault,class,detail\n";
  List.iter
    (fun rec_ ->
      Printf.bprintf b "%s,%s,%s,%s\n" (csv_escape r.bench)
        (csv_escape (Fault.to_string rec_.fault))
        (outcome_class rec_.outcome)
        (csv_escape (outcome_detail rec_.outcome)))
    r.records;
  Buffer.contents b

let summary_string r =
  Printf.sprintf
    "%-6s %5d gates %5d faults | masked %5d  detected %5d  deadlock %5d  wrong-output %d | schedules %s"
    r.bench r.pl_gates (List.length r.records) r.masked r.detected r.deadlock r.wrong_output
    (if List.for_all (fun s -> s.agrees) r.schedules then "ok"
     else
       "MISMATCH:"
       ^ String.concat ","
           (List.filter_map (fun s -> if s.agrees then None else Some s.schedule) r.schedules))
