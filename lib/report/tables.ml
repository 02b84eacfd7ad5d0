module Table = Ee_util.Table
module Lut4 = Ee_logic.Lut4
module Trigger = Ee_core.Trigger

(* Table 1: the full-adder carry example.  Variables a=2, b=1, c=0 so the
   minterm index reads "abc". *)

let carry = Trigger.full_adder_carry

let carry_trigger =
  Lut4.of_truthtab (Trigger.trigger_function (Lut4.to_truthtab carry) ~subset:0b110)

let table1 () =
  let t = Table.create ~headers:[ "a b c"; "Master"; "Trigger" ] in
  for m = 0 to 7 do
    let bits = Printf.sprintf "%d %d %d" ((m lsr 2) land 1) ((m lsr 1) land 1) (m land 1) in
    let master = if Lut4.eval_bits carry m then "1" else "0" in
    let trig = if Lut4.eval_bits carry_trigger m then "1" else "0" in
    Table.add_row t [ bits; master; trig ]
  done;
  t

let table1_coverage () = 100. *. float_of_int (Lut4.count_ones carry_trigger) /. 16.

(* Table 2: cube-list determination of the {a,b} candidate.  Work in the
   3-variable space (a=2, b=1, c=0) to match the paper's cube notation. *)

let carry3 =
  Ee_logic.Truthtab.of_fun 3 (fun m -> Lut4.eval_bits carry m)

let table2 () =
  let cl = Ee_logic.Cubelist.of_truthtab carry3 in
  let subset = 0b110 in
  let t =
    Table.create
      ~headers:[ "Master Cube"; "Master Output"; "{a,b} Coverage"; "Trigger Function" ]
  in
  List.iter
    (fun (cube, output, contribution) ->
      let in_trigger = Ee_logic.Cube.supported_on cube ~subset in
      Table.add_row t
        [
          Ee_logic.Cube.to_string ~nvars:3 cube;
          (if output then "1" else "0");
          string_of_int contribution;
          (if in_trigger then "1" else "0");
        ])
    (Ee_logic.Cubelist.cube_analysis cl ~subset);
  t

(* Table 3. *)

type row = {
  id : string;
  description : string;
  pl_gates : int;
  ee_gates : int;
  delay_no_ee : float;
  delay_ee : float;
  delay_diff : float;
  area_increase : float;
  delay_decrease : float;
  critical_cycle : string;
}

type table3 = {
  rows : row list;
  avg_area_increase : float;
  avg_delay_decrease : float;
}

let row ?(vectors = 100) ?(seed = 2002) ?(config = Ee_sim.Sim.default_config) ~id ~description
    (report : Ee_core.Synth.report) pl pl_ee =
  let base = Ee_sim.Sim.run_random ~config pl ~vectors ~seed in
  let ee = Ee_sim.Sim.run_random ~config pl_ee ~vectors ~seed in
  let delay_no_ee = base.Ee_sim.Sim.avg_settle_time in
  let delay_ee = ee.Ee_sim.Sim.avg_settle_time in
  let critical_cycle =
    Ee_perf.Throughput.critical_cycle ~gate_delay:config.Ee_sim.Sim.gate_delay
      ~ee_overhead:config.Ee_sim.Sim.ee_overhead pl_ee
  in
  {
    id;
    description;
    pl_gates = report.Ee_core.Synth.pl_gates;
    ee_gates = report.Ee_core.Synth.ee_gates;
    delay_no_ee;
    delay_ee;
    delay_diff = delay_no_ee -. delay_ee;
    area_increase = report.Ee_core.Synth.area_increase_percent;
    delay_decrease = Ee_util.Stats.percent_change ~before:delay_no_ee ~after:delay_ee;
    critical_cycle;
  }

let row_of_artifact ?vectors ?seed ?config (a : Pipeline.artifact) =
  row ?vectors ?seed ?config ~id:a.Pipeline.id ~description:a.Pipeline.description
    a.Pipeline.synth_report a.Pipeline.pl a.Pipeline.pl_ee

let table3_to_table ?(cycles = false) t3 =
  let headers =
    [
      "Description";
      "PL Gates (no EE)";
      "EE Gates";
      "Avg Delay (no EE)";
      "Avg Delay (w. EE)";
      "Delay Diff.";
      "% Area Increase";
      "% Delay Decrease";
    ]
    @ if cycles then [ "Critical Cycle" ] else []
  in
  let t = Table.create ~headers in
  List.iter
    (fun r ->
      Table.add_row t
        ([
           Printf.sprintf "%s %s" r.id r.description;
           string_of_int r.pl_gates;
           string_of_int r.ee_gates;
           Printf.sprintf "%.1f" r.delay_no_ee;
           Printf.sprintf "%.1f" r.delay_ee;
           Printf.sprintf "%.1f" r.delay_diff;
           Printf.sprintf "%.0f%%" r.area_increase;
           Printf.sprintf "%.0f%%" r.delay_decrease;
         ]
        @ if cycles then [ r.critical_cycle ] else []))
    t3.rows;
  Table.add_separator t;
  Table.add_row t
    ([
       "average";
       "";
       "";
       "";
       "";
       "";
       Printf.sprintf "%.0f%%" t3.avg_area_increase;
       Printf.sprintf "%.0f%%" t3.avg_delay_decrease;
     ]
    @ if cycles then [ "" ] else []);
  t
