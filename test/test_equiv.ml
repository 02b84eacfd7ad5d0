module Equiv = Ee_netlist.Equiv
module Netlist = Ee_netlist.Netlist
module Lut4 = Ee_logic.Lut4

let design_of id = (Ee_bench_circuits.Itc99.find id).Ee_bench_circuits.Itc99.build ()

let test_mappers_formally_equivalent () =
  (* The greedy and priority-cuts mappers produce provably equivalent
     netlists from the same RTL. *)
  List.iter
    (fun id ->
      let d = design_of id in
      let greedy = Ee_rtl.Techmap.run_rtl d in
      let depth = Ee_rtl.Cutmap.run_rtl ~mode:Ee_rtl.Cutmap.Depth d in
      let ee_aware = Ee_rtl.Cutmap.run_rtl ~mode:Ee_rtl.Cutmap.Ee_aware d in
      Alcotest.(check bool) (id ^ " greedy=depth") true (Equiv.is_equivalent greedy depth);
      Alcotest.(check bool) (id ^ " greedy=ee-aware") true (Equiv.is_equivalent greedy ee_aware))
    [ "b01"; "b02"; "b06"; "b09"; "b10" ]

let test_blif_roundtrip_formally_equivalent () =
  List.iter
    (fun id ->
      let nl = Ee_rtl.Techmap.run_rtl (design_of id) in
      let nl' = Ee_frontend.Blif_in.of_string (Ee_export.Blif.to_blif nl) in
      Alcotest.(check bool) (id ^ " roundtrip") true (Equiv.is_equivalent nl nl'))
    [ "b01"; "b02"; "b06"; "b09" ]

let two_input name func =
  let b = Netlist.builder () in
  let x = Netlist.add_input b "x" in
  let y = Netlist.add_input b "y" in
  let g = Netlist.add_lut b func [| x; y |] in
  Netlist.set_output b name g;
  Netlist.finalize b

let test_detects_output_mismatch () =
  let a = two_input "z" (Lut4.logand (Lut4.var 0) (Lut4.var 1)) in
  let b = two_input "z" (Lut4.logor (Lut4.var 0) (Lut4.var 1)) in
  (match Equiv.check a b with
  | Equiv.Output_mismatch "z" -> ()
  | _ -> Alcotest.fail "expected output mismatch");
  (* Same function built differently: AND = NOT (NOT x OR NOT y). *)
  let builder = Netlist.builder () in
  let x = Netlist.add_input builder "x" in
  let y = Netlist.add_input builder "y" in
  let nx = Netlist.add_lut builder (Lut4.lognot (Lut4.var 0)) [| x |] in
  let ny = Netlist.add_lut builder (Lut4.lognot (Lut4.var 0)) [| y |] in
  let nor = Netlist.add_lut builder (Lut4.logor (Lut4.var 0) (Lut4.var 1)) [| nx; ny |] in
  let out = Netlist.add_lut builder (Lut4.lognot (Lut4.var 0)) [| nor |] in
  Netlist.set_output builder "z" out;
  let de_morgan = Netlist.finalize builder in
  Alcotest.(check bool) "De Morgan form equivalent" true (Equiv.is_equivalent a de_morgan)

let test_detects_port_mismatch () =
  let a = two_input "z" Lut4.const1 in
  let b = two_input "w" Lut4.const1 in
  match Equiv.check a b with
  | Equiv.Port_mismatch _ -> ()
  | _ -> Alcotest.fail "expected port mismatch"

let test_detects_register_mismatch () =
  let make init =
    let b = Netlist.builder () in
    let d = Netlist.add_dff b ~init in
    let inv = Netlist.add_lut b (Lut4.lognot (Lut4.var 0)) [| d |] in
    Netlist.connect_dff b d ~d:inv;
    Netlist.set_output b "q" d;
    Netlist.finalize b
  in
  Alcotest.(check bool) "same reset equivalent" true (Equiv.is_equivalent (make false) (make false));
  match Equiv.check (make false) (make true) with
  | Equiv.Register_mismatch -> ()
  | _ -> Alcotest.fail "expected register mismatch"

let test_sequential_equivalence () =
  (* Same FSM mapped two ways, checked as functions of state and input. *)
  let d = design_of "b13" in
  let a = Ee_rtl.Techmap.run_rtl d in
  let b = Ee_rtl.Cutmap.run_rtl ~mode:Ee_rtl.Cutmap.Depth d in
  Alcotest.(check bool) "b13 sequential equivalence" true (Equiv.is_equivalent a b)

let suite =
  ( "equiv",
    [
      Alcotest.test_case "mappers formally equivalent" `Quick test_mappers_formally_equivalent;
      Alcotest.test_case "blif roundtrip formal" `Quick test_blif_roundtrip_formally_equivalent;
      Alcotest.test_case "detects output mismatch" `Quick test_detects_output_mismatch;
      Alcotest.test_case "detects port mismatch" `Quick test_detects_port_mismatch;
      Alcotest.test_case "detects register mismatch" `Quick test_detects_register_mismatch;
      Alcotest.test_case "sequential equivalence" `Quick test_sequential_equivalence;
    ] )
