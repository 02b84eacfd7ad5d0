module Pl = Ee_phased.Pl
module Netlist = Ee_netlist.Netlist
module Lut4 = Ee_logic.Lut4
module Mg = Ee_markedgraph.Marked_graph
module Flat = Ee_phased.Flat

let marked_graph pl = Flat.marked_graph (Flat.of_pl ~caller:"test" pl)

(* carry LUT fed by two inputs and a delayed third input. *)
let small_netlist () =
  let b = Netlist.builder () in
  let a = Netlist.add_input b "a" in
  let bb = Netlist.add_input b "b" in
  let c = Netlist.add_input b "c" in
  let buf = Netlist.add_lut b (Lut4.var 0) [| c |] in
  let carry = Netlist.add_lut b Ee_core.Trigger.full_adder_carry [| buf; bb; a |] in
  Netlist.set_output b "cout" carry;
  Netlist.finalize b

let small_pl () = Pl.of_netlist (small_netlist ())

let ee_request =
  {
    Pl.req_support = 0b110;
    req_func = Ee_core.Trigger.full_adder_carry_trigger;
    req_coverage = 50.;
    req_cost = 100.;
  }

let master_id pl =
  (* The carry gate is the last Gate in the base netlist mapping. *)
  let gates = Pl.gates pl in
  let id = ref (-1) in
  Array.iteri
    (fun i g -> match g.Pl.kind with Pl.Gate f when Lut4.support_size f >= 3 -> id := i | _ -> ())
    gates;
  !id

let test_of_netlist_structure () =
  let pl = small_pl () in
  Alcotest.(check int) "pl gates" 2 (Pl.pl_gate_count pl);
  Alcotest.(check int) "no ee yet" 0 (Pl.ee_gate_count pl);
  Alcotest.(check int) "sources" 3 (Array.length (Pl.source_ids pl));
  Alcotest.(check int) "sinks" 1 (Array.length (Pl.sink_ids pl))

let test_levels_and_arrivals () =
  let pl = small_pl () in
  Array.iter
    (fun s -> Alcotest.(check int) "source level" 0 (Pl.level pl s))
    (Pl.source_ids pl);
  let m = master_id pl in
  Alcotest.(check int) "carry level" 2 (Pl.level pl m);
  Alcotest.(check int) "carry arrival" 3 (Pl.arrival pl m)

let test_with_ee () =
  let pl = small_pl () in
  let m = master_id pl in
  let pl' = Pl.with_ee pl [ (m, ee_request) ] in
  Alcotest.(check int) "one trigger" 1 (Pl.ee_gate_count pl');
  Alcotest.(check int) "pl gates unchanged" 2 (Pl.pl_gate_count pl');
  match Pl.ee pl' m with
  | None -> Alcotest.fail "expected ee info"
  | Some info ->
      Alcotest.(check int) "support" 0b110 info.Pl.support;
      let trig = Pl.gate pl' info.Pl.trigger in
      (match trig.Pl.kind with
      | Pl.Trigger { master; func } ->
          Alcotest.(check int) "master back-pointer" m master;
          (* Compacted onto 2 inputs: xnor. *)
          Alcotest.(check int) "trigger support" 0b11 (Lut4.support func)
      | _ -> Alcotest.fail "not a trigger gate");
      Alcotest.(check int) "trigger fanin" 2 (Array.length trig.Pl.fanin)

let test_with_ee_errors () =
  let pl = small_pl () in
  let m = master_id pl in
  (match Pl.with_ee pl [ (m, ee_request); (m, ee_request) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate master accepted");
  let source = (Pl.source_ids pl).(0) in
  match Pl.with_ee pl [ (source, ee_request) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "source master accepted"

let test_strip_ee () =
  let pl = small_pl () in
  let m = master_id pl in
  let pl' = Pl.with_ee pl [ (m, ee_request) ] in
  let stripped = Pl.strip_ee pl' in
  Alcotest.(check int) "no triggers" 0 (Pl.ee_gate_count stripped);
  Alcotest.(check int) "same gates" (Array.length (Pl.gates pl)) (Array.length (Pl.gates stripped))

let test_topo_masters_after_triggers () =
  let pl = small_pl () in
  let m = master_id pl in
  let pl' = Pl.with_ee pl [ (m, ee_request) ] in
  let pos = Array.make (Array.length (Pl.gates pl')) 0 in
  Array.iteri (fun k i -> pos.(i) <- k) (Pl.topo pl');
  (match Pl.ee pl' m with
  | Some info ->
      Alcotest.(check bool) "trigger before master" true (pos.(info.Pl.trigger) < pos.(m))
  | None -> Alcotest.fail "no ee");
  (* Every gate follows its fanins. *)
  Array.iteri
    (fun i g ->
      match g.Pl.kind with
      | Pl.Gate _ | Pl.Trigger _ | Pl.Sink _ ->
          Array.iter
            (fun f ->
              match (Pl.gate pl' f).Pl.kind with
              | Pl.Gate _ | Pl.Trigger _ ->
                  Alcotest.(check bool) "fanin first" true (pos.(f) < pos.(i))
              | _ -> ())
            g.Pl.fanin
      | _ -> ())
    (Pl.gates pl')

let test_marked_graph_live_safe_with_ee () =
  let pl = small_pl () in
  let m = master_id pl in
  let pl' = Pl.with_ee pl [ (m, ee_request) ] in
  let g = marked_graph (pl') in
  Alcotest.(check bool) "live" true (Mg.is_live g);
  Alcotest.(check bool) "safe" true (Mg.is_safe g)

let test_marked_graph_counts () =
  let pl = small_pl () in
  let g = marked_graph (pl) in
  Alcotest.(check int) "nodes = gates" (Array.length (Pl.gates pl)) (Mg.node_count g);
  (* Each distinct (src,dst) pair contributes a data and a feedback arc:
     a->carry, b->carry, c->buf, buf->carry, carry->sink = 5 pairs. *)
  Alcotest.(check int) "arcs" 10 (Mg.arc_count g)

let test_register_tokens () =
  (* A register's output arcs start marked, its feedbacks unmarked. *)
  let b = Netlist.builder () in
  let x = Netlist.add_input b "x" in
  let d = Netlist.add_dff b ~init:false in
  let f = Netlist.add_lut b (Lut4.logxor (Lut4.var 0) (Lut4.var 1)) [| d; x |] in
  Netlist.connect_dff b d ~d:f;
  Netlist.set_output b "q" d;
  let pl = Pl.of_netlist (Netlist.finalize b) in
  let g = marked_graph (pl) in
  Alcotest.(check bool) "live" true (Mg.is_live g);
  Alcotest.(check bool) "safe" true (Mg.is_safe g);
  (* Count initial tokens on arcs leaving the register node. *)
  let reg_id =
    List.hd
      (List.filter_map
         (fun i ->
           match (Pl.gate pl i).Pl.kind with Pl.Register _ -> Some i | _ -> None)
         (List.init (Array.length (Pl.gates pl)) Fun.id))
  in
  let marked =
    Array.to_list (Mg.arcs g)
    |> List.filter (fun (s, _, k) -> s = reg_id && k = 1)
    |> List.length
  in
  Alcotest.(check bool) "register output arcs marked" true (marked >= 1)

let test_dot () =
  let pl = small_pl () in
  let m = master_id pl in
  let pl' = Pl.with_ee pl [ (m, ee_request) ] in
  let dot = Pl.to_dot pl' in
  Alcotest.(check bool) "efire edge rendered" true (Astring_contains.contains dot "efire")

(* The token graph as [Pl.to_marked_graph] built it before [Flat] owned
   the arcs: per gate, the trigger then the fanins, each distinct producer
   once, prepended with its data arc ahead of its acknowledge. *)
let reference_marked_graph pl =
  let gates = Pl.gates pl in
  let n = Array.length gates in
  let arcs = ref [] in
  let add_pair src dst =
    let data_tok =
      match gates.(src).Pl.kind with
      | Pl.Register _ | Pl.Const_source _ -> 1
      | Pl.Source _ | Pl.Gate _ | Pl.Trigger _ | Pl.Sink _ -> 0
    in
    if src = dst then arcs := (src, dst, data_tok) :: !arcs
    else arcs := (src, dst, data_tok) :: (dst, src, 1 - data_tok) :: !arcs
  in
  for i = 0 to n - 1 do
    let seen = Hashtbl.create 4 in
    let all =
      (match Pl.ee pl i with Some e -> [ e.Pl.trigger ] | None -> [])
      @ Array.to_list gates.(i).Pl.fanin
    in
    List.iter
      (fun src ->
        if not (Hashtbl.mem seen src) then begin
          Hashtbl.add seen src ();
          add_pair src i
        end)
      all
  done;
  Mg.make ~nodes:n ~arcs:!arcs

(* [Flat.marked_graph] is the reference graph arc for arc, in order, on
   ITC99 b01-b15 with and without EE, on the search selections of
   b01-b13 (shared triggers included) and on the circuit families. *)
let test_marked_graph_matches_reference () =
  let module Itc99 = Ee_bench_circuits.Itc99 in
  let module Families = Ee_bench_circuits.Families in
  let with_ee name pl = [ (name, pl); (name ^ "/ee", fst (Ee_core.Synth.run pl)) ] in
  let itc99 =
    List.map
      (fun (b : Itc99.benchmark) ->
        (b.Itc99.id, Pl.of_netlist (Ee_rtl.Techmap.run_rtl (b.Itc99.build ()))))
      Itc99.all
  in
  let search =
    List.filter_map
      (fun (id, pl) ->
        if id > "b13" then None else Some (id ^ "/search", fst (Ee_search.Search_select.run pl)))
      itc99
  in
  let shared = List.assoc "b04/search" search in
  let masters = ref 0 in
  Array.iteri (fun i _ -> if Pl.ee shared i <> None then incr masters) (Pl.gates shared);
  Alcotest.(check bool) "b04 search shares a trigger" true (!masters > Pl.ee_gate_count shared);
  let families =
    List.map
      (fun (fam : Families.family) ->
        (fam.Families.name, Pl.of_netlist (Ee_rtl.Techmap.run_rtl (fam.Families.build 8))))
      Families.all
  in
  let netlists =
    List.concat_map (fun (name, pl) -> with_ee name pl) (itc99 @ families) @ search
  in
  Alcotest.(check int) "netlists" ((2 * 15) + 13 + (2 * List.length Families.all))
    (List.length netlists);
  List.iter
    (fun (name, pl) ->
      if Mg.arcs (marked_graph pl) <> Mg.arcs (reference_marked_graph pl) then
        Alcotest.failf "%s: Flat.marked_graph differs from the reference graph" name)
    netlists

let suite =
  ( "pl",
    [
      Alcotest.test_case "of_netlist structure" `Quick test_of_netlist_structure;
      Alcotest.test_case "levels and arrivals" `Quick test_levels_and_arrivals;
      Alcotest.test_case "with_ee" `Quick test_with_ee;
      Alcotest.test_case "with_ee errors" `Quick test_with_ee_errors;
      Alcotest.test_case "strip_ee" `Quick test_strip_ee;
      Alcotest.test_case "topo: triggers before masters" `Quick test_topo_masters_after_triggers;
      Alcotest.test_case "marked graph live+safe with EE" `Quick test_marked_graph_live_safe_with_ee;
      Alcotest.test_case "marked graph counts" `Quick test_marked_graph_counts;
      Alcotest.test_case "register tokens" `Quick test_register_tokens;
      Alcotest.test_case "dot export" `Quick test_dot;
      Alcotest.test_case "marked graph = reference to_marked_graph" `Quick
        test_marked_graph_matches_reference;
    ] )
