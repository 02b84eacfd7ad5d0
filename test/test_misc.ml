(* Coverage for the smaller public surfaces: pretty-printers, error paths,
   convenience wrappers. *)

let test_portmap_errors () =
  let d : Ee_rtl.Rtl.design =
    { name = "p"; inputs = [ ("a", 2) ]; regs = []; nexts = []; outputs = [ ("y", Ee_rtl.Rtl.Input "a") ] }
  in
  let nl = Ee_rtl.Techmap.run_rtl d in
  let pm = Ee_rtl.Portmap.make d nl in
  (* Out-of-range input value is rejected by the RTL layer, not silently
     truncated by the portmap. *)
  let vec = Ee_rtl.Portmap.encode_inputs pm [ ("a", 3) ] in
  Alcotest.(check int) "bit width" 2 (Array.length vec);
  (* Unknown names default to zero. *)
  let zeros = Ee_rtl.Portmap.encode_inputs pm [ ("nope", 1) ] in
  Alcotest.(check bool) "defaults to zero" true (Array.for_all not zeros);
  (* A netlist with non-bit port names is rejected. *)
  let bad = Ee_netlist.Netlist.builder () in
  ignore (Ee_netlist.Netlist.add_input bad "plain");
  match Ee_rtl.Portmap.make d (Ee_netlist.Netlist.finalize bad) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_pp_smoke () =
  let e =
    Ee_rtl.Rtl.Mux
      ( Ee_rtl.Rtl.Input "s",
        Ee_rtl.Rtl.Add (Ee_rtl.Rtl.Input "a", Ee_rtl.Rtl.Const (4, 3)),
        Ee_rtl.Rtl.Slice (Ee_rtl.Rtl.Reg "r", 3, 1) )
  in
  let s = Format.asprintf "%a" Ee_rtl.Rtl.pp_expr e in
  List.iter
    (fun frag -> Alcotest.(check bool) frag true (Astring_contains.contains s frag))
    [ "4'd3"; "[3:1]"; "+" ];
  let summary = Ee_util.Stats.summarize [| 1.; 2.; 3. |] in
  let s2 = Format.asprintf "%a" Ee_util.Stats.pp_summary summary in
  Alcotest.(check bool) "summary mentions mean" true (Astring_contains.contains s2 "mean");
  let tt = Ee_logic.Truthtab.of_string "0110" in
  Alcotest.(check bool) "tt pp" true
    (Astring_contains.contains (Format.asprintf "%a" Ee_logic.Truthtab.pp tt) "0110");
  Alcotest.(check bool) "lut pp" true
    (Astring_contains.contains
       (Format.asprintf "%a" Ee_logic.Lut4.pp Ee_logic.Lut4.const1)
       "1111");
  Alcotest.(check bool) "cubelist pp" true
    (Astring_contains.contains
       (Format.asprintf "%a" Ee_logic.Cubelist.pp (Ee_logic.Cubelist.of_truthtab tt))
       "ON");
  let rails = Ee_phased.Ledr.encode ~value:true ~phase:Ee_phased.Ledr.Odd in
  Alcotest.(check bool) "ledr pp" true
    (Astring_contains.contains (Format.asprintf "%a" Ee_phased.Ledr.pp rails) "odd")

let test_stats_strings () =
  let nl = Ee_rtl.Techmap.run_rtl ((Ee_bench_circuits.Itc99.find "b06").Ee_bench_circuits.Itc99.build ()) in
  Alcotest.(check bool) "netlist stats" true
    (Astring_contains.contains (Ee_netlist.Netlist.stats_string nl) "luts=");
  let pl = Ee_phased.Pl.of_netlist nl in
  Alcotest.(check bool) "pl stats" true
    (Astring_contains.contains (Ee_phased.Pl.stats_string pl) "pl_gates=")

let test_run_vectors_explicit () =
  let nl = Ee_rtl.Techmap.run_rtl ((Ee_bench_circuits.Itc99.find "b02").Ee_bench_circuits.Itc99.build ()) in
  let pl = Ee_phased.Pl.of_netlist nl in
  let width = Array.length (Ee_phased.Pl.source_ids pl) in
  let r = Ee_sim.Sim.run_vectors pl (List.init 7 (fun i -> Array.make width (i mod 2 = 0))) in
  Alcotest.(check int) "waves counted" 7 r.Ee_sim.Sim.waves;
  match Ee_sim.Sim.run_vectors pl [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on empty run"

let test_engine_suite_artifacts () =
  let module Engine = Ee_engine.Engine in
  let suite = Engine.run_suite ~spec:(Engine.with_vectors 3 Engine.default_spec) () in
  let results = Engine.ok_results suite in
  Alcotest.(check int) "fifteen artifacts" 15 (List.length results);
  List.iter
    (fun r ->
      Alcotest.(check bool) "baseline has no triggers" true
        (Ee_phased.Pl.ee_gate_count r.Engine.artifact.Ee_report.Pipeline.pl = 0))
    results

let test_marked_graph_arcs_accessor () =
  let g = Ee_markedgraph.Marked_graph.make ~nodes:2 ~arcs:[ (0, 1, 1); (1, 0, 0) ] in
  Alcotest.(check int) "arc count" 2 (Ee_markedgraph.Marked_graph.arc_count g);
  Alcotest.(check bool) "arcs roundtrip" true
    (Ee_markedgraph.Marked_graph.arcs g = [| (0, 1, 1); (1, 0, 0) |])

let test_truthtab_arity_bounds () =
  (match Ee_logic.Truthtab.create 17 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected arity bound");
  Alcotest.(check int) "max arity constant" 16 Ee_logic.Truthtab.max_arity

let test_bdd_node_count_const () =
  let m = Ee_logic.Bdd.manager () in
  Alcotest.(check int) "leaf has no internal nodes" 0
    (Ee_logic.Bdd.node_count m (Ee_logic.Bdd.one m));
  Alcotest.(check int) "single var" 1 (Ee_logic.Bdd.node_count m (Ee_logic.Bdd.var m 3))

let test_vhdl_of_netlist_wrapper () =
  let nl = Ee_rtl.Techmap.run_rtl ((Ee_bench_circuits.Itc99.find "b06").Ee_bench_circuits.Itc99.build ()) in
  let text = Ee_export.Vhdl.of_netlist ~entity:"wrapped" nl in
  Alcotest.(check bool) "entity name" true (Astring_contains.contains text "entity wrapped is")

let suite =
  ( "misc",
    [
      Alcotest.test_case "portmap errors" `Quick test_portmap_errors;
      Alcotest.test_case "pretty-printers" `Quick test_pp_smoke;
      Alcotest.test_case "stats strings" `Quick test_stats_strings;
      Alcotest.test_case "run_vectors explicit" `Quick test_run_vectors_explicit;
      Alcotest.test_case "engine suite artifacts" `Quick test_engine_suite_artifacts;
      Alcotest.test_case "marked graph arcs" `Quick test_marked_graph_arcs_accessor;
      Alcotest.test_case "truthtab arity bounds" `Quick test_truthtab_arity_bounds;
      Alcotest.test_case "bdd node counts" `Quick test_bdd_node_count_const;
      Alcotest.test_case "vhdl wrapper" `Quick test_vhdl_of_netlist_wrapper;
    ] )
