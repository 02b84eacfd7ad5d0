type artifact = {
  id : string;
  description : string;
  design : Ee_rtl.Rtl.design;
  netlist : Ee_netlist.Netlist.t;
  pl : Ee_phased.Pl.t;
  pl_ee : Ee_phased.Pl.t;
  synth_report : Ee_core.Synth.report;
}

type instrument = { wrap : 'a. string -> (unit -> 'a) -> 'a }

let no_instrument = { wrap = (fun _ f -> f ()) }

let stage_names = [ "rtl"; "bit-blast"; "pl-map"; "ee-plan" ]

let build_staged ?(options = Ee_core.Synth.default_options) ?memo ?plan
    ?(instrument = no_instrument) (b : Ee_bench_circuits.Itc99.benchmark) =
  let design = instrument.wrap "rtl" (fun () -> b.build ()) in
  let netlist = instrument.wrap "bit-blast" (fun () -> Ee_rtl.Techmap.run_rtl design) in
  let pl = instrument.wrap "pl-map" (fun () -> Ee_phased.Pl.of_netlist netlist) in
  let select =
    match plan with
    | Some f -> f
    | None -> fun pl -> Ee_core.Synth.run ~options ?memo pl
  in
  let pl_ee, synth_report = instrument.wrap "ee-plan" (fun () -> select pl) in
  { id = b.id; description = b.description; design; netlist; pl; pl_ee; synth_report }

let build ?options b = build_staged ?options b

let check_live_safe a =
  let check tag pl =
    let module Flat = Ee_phased.Flat in
    let mg = Flat.marked_graph (Flat.of_pl ~caller:"Pipeline.check_live_safe" pl) in
    match Ee_markedgraph.Marked_graph.check_live_safe mg with
    | Ok () -> Ok ()
    | Error msg -> Error (Printf.sprintf "%s (%s): %s" a.id tag msg)
  in
  match check "no-EE" a.pl with Ok () -> check "EE" a.pl_ee | e -> e
