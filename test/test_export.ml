module Blif = Ee_export.Blif
module Blif_in = Ee_frontend.Blif_in
module Vhdl = Ee_export.Vhdl
module Netlist = Ee_netlist.Netlist

let netlist_of id = Ee_rtl.Techmap.run_rtl ((Ee_bench_circuits.Itc99.find id).Ee_bench_circuits.Itc99.build ())

let equiv_netlists a b cycles seed =
  (* Same ports assumed (possibly reordered); compare by name. *)
  let rng = Ee_util.Prng.create seed in
  let ins_a = Netlist.inputs a and ins_b = Netlist.inputs b in
  Alcotest.(check int) "same input count" (Array.length ins_a) (Array.length ins_b);
  let sta = ref (Netlist.initial_state a) and stb = ref (Netlist.initial_state b) in
  for _ = 1 to cycles do
    let values = Array.map (fun (n, _) -> (n, Ee_util.Prng.bool rng)) ins_a in
    let vec_for nl =
      Array.map
        (fun (n, _) -> List.assoc n (Array.to_list values))
        (Netlist.inputs nl)
    in
    let outs_a, sta' = Netlist.step a !sta (vec_for a) in
    let outs_b, stb' = Netlist.step b !stb (vec_for b) in
    sta := sta';
    stb := stb';
    let by_name nl outs =
      List.sort compare
        (Array.to_list (Array.mapi (fun k (n, _) -> (n, outs.(k))) (Netlist.outputs nl)))
    in
    if by_name a outs_a <> by_name b outs_b then Alcotest.fail "outputs diverge"
  done

let test_blif_roundtrip () =
  (* The reader must accept and reproduce every ITC99 netlist the writer
     emits. *)
  List.iter
    (fun b ->
      let id = b.Ee_bench_circuits.Itc99.id in
      let nl = Ee_rtl.Techmap.run_rtl (b.Ee_bench_circuits.Itc99.build ()) in
      match Blif_in.parse (Blif.to_blif ~model:id nl) with
      | Error msg -> Alcotest.failf "%s: %s" id msg
      | Ok nl' ->
          (* The exporter may insert buffer LUTs, so gate counts are not
             preserved; state element count and behaviour are. *)
          Alcotest.(check int) (id ^ " dff count") (Netlist.dff_count nl)
            (Netlist.dff_count nl');
          equiv_netlists nl nl' 80 11)
    Ee_bench_circuits.Itc99.all

let test_blif_parse_error_result () =
  (* Blif_in.parse is the non-raising face of Blif_in.of_string. *)
  match Blif_in.parse ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n0 0\n.end\n" with
  | Ok _ -> Alcotest.fail "expected Error"
  | Error msg ->
      Alcotest.(check bool) "mentions the line" true
        (Astring_contains.contains msg "line")

let test_blif_parse_handwritten () =
  let text =
    ".model half_adder\n\
     .inputs a b\n\
     .outputs sum carry\n\
     # xor via two cubes\n\
     .names a b sum\n\
     10 1\n\
     01 1\n\
     .names a b carry\n\
     11 1\n\
     .end\n"
  in
  let nl = Blif_in.of_string text in
  Alcotest.(check int) "two luts" 2 (Netlist.lut_count nl);
  let outs, _ = Netlist.step nl (Netlist.initial_state nl) [| true; true |] in
  Alcotest.(check (array bool)) "1+1" [| false; true |] outs;
  let outs, _ = Netlist.step nl (Netlist.initial_state nl) [| true; false |] in
  Alcotest.(check (array bool)) "1+0" [| true; false |] outs

let test_blif_latch () =
  let text =
    ".model counter1\n\
     .inputs en\n\
     .outputs q\n\
     .names q en d\n\
     10 1\n\
     01 1\n\
     .latch d q re NIL 0\n\
     .end\n"
  in
  let nl = Blif_in.of_string text in
  Alcotest.(check int) "one dff" 1 (Netlist.dff_count nl);
  let st = ref (Netlist.initial_state nl) in
  let seq = List.init 4 (fun _ ->
      let outs, st' = Netlist.step nl !st [| true |] in
      st := st';
      outs.(0))
  in
  Alcotest.(check (list bool)) "toggles" [ false; true; false; true ] seq

let test_blif_off_cover () =
  (* Cover given as OFF-set (output column 0). *)
  let text =
    ".model inv\n.inputs a\n.outputs y\n.names a y\n1 0\n.end\n"
  in
  let nl = Blif_in.of_string text in
  let outs, _ = Netlist.step nl (Netlist.initial_state nl) [| true |] in
  Alcotest.(check bool) "not 1" false outs.(0);
  let outs, _ = Netlist.step nl (Netlist.initial_state nl) [| false |] in
  Alcotest.(check bool) "not 0" true outs.(0)

let test_blif_constants () =
  let text = ".model k\n.inputs a\n.outputs one zero\n.names one\n1\n.names zero\n.end\n" in
  let nl = Blif_in.of_string text in
  let outs, _ = Netlist.step nl (Netlist.initial_state nl) [| false |] in
  Alcotest.(check (array bool)) "constants" [| true; false |] outs

let test_blif_errors () =
  let expect_error text =
    match Blif_in.of_string text with
    | exception Blif_in.Parse_error _ -> ()
    | _ -> Alcotest.fail "expected Parse_error"
  in
  expect_error ".model m\n.inputs a\n.outputs y\n.end\n";
  expect_error ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n0 0\n.end\n";
  expect_error ".model m\n.inputs a\n.outputs y\n.subckt foo\n.end\n"

let test_vhdl_structure () =
  let nl = netlist_of "b09" in
  let pl = Ee_phased.Pl.of_netlist nl in
  let pl_ee, report = Ee_core.Synth.run pl in
  let text = Vhdl.of_pl ~entity:"b09_pl" pl_ee in
  Alcotest.(check bool) "entity" true (Astring_contains.contains text "entity b09_pl is");
  Alcotest.(check bool) "architecture" true
    (Astring_contains.contains text "architecture structural of b09_pl");
  Alcotest.(check bool) "has ee component" true
    (Astring_contains.contains text "pl4gate_ee");
  (* One pl4gate_ee instance per EE pair. *)
  let count_substring hay needle =
    let rec go i acc =
      if i + String.length needle > String.length hay then acc
      else if String.sub hay i (String.length needle) = needle then
        go (i + String.length needle) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "ee instances"
    report.Ee_core.Synth.ee_gates
    (count_substring text ": pl4gate_ee generic map");
  Alcotest.(check int) "trigger instances"
    report.Ee_core.Synth.ee_gates
    (count_substring text "-- EE trigger")

let test_vhdl_deterministic () =
  let nl = netlist_of "b02" in
  Alcotest.(check string) "same text" (Vhdl.of_netlist nl) (Vhdl.of_netlist nl)

let suite =
  ( "export",
    [
      Alcotest.test_case "blif roundtrip (all 15)" `Quick test_blif_roundtrip;
      Alcotest.test_case "blif parse error result" `Quick test_blif_parse_error_result;
      Alcotest.test_case "blif handwritten" `Quick test_blif_parse_handwritten;
      Alcotest.test_case "blif latch" `Quick test_blif_latch;
      Alcotest.test_case "blif off cover" `Quick test_blif_off_cover;
      Alcotest.test_case "blif constants" `Quick test_blif_constants;
      Alcotest.test_case "blif errors" `Quick test_blif_errors;
      Alcotest.test_case "vhdl structure" `Quick test_vhdl_structure;
      Alcotest.test_case "vhdl deterministic" `Quick test_vhdl_deterministic;
    ] )
