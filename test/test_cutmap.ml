module Cutmap = Ee_rtl.Cutmap
module Techmap = Ee_rtl.Techmap
module Netlist = Ee_netlist.Netlist

let qtest name ?(count = 30) prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count QCheck.(int_range 0 1_000_000) prop)

let rtl_equiv d nl cycles seed =
  let pm = Ee_rtl.Portmap.make d nl in
  let rng = Ee_util.Prng.create seed in
  let env = ref (Ee_rtl.Rtl.initial_env d) in
  let st = ref (Netlist.initial_state nl) in
  let ok = ref true in
  for _ = 1 to cycles do
    if !ok then begin
      let ins = Ee_rtl.Portmap.random_inputs pm rng in
      let outs_rtl, env' = Ee_rtl.Rtl.step d !env ins in
      let outs_nl, st' = Ee_rtl.Portmap.step pm !st ins in
      env := env';
      st := st';
      if List.exists (fun (n, v) -> List.assoc n outs_nl <> v) outs_rtl then ok := false
    end
  done;
  !ok

let prop_depth_mode_equiv =
  qtest "depth mapping preserves semantics" (fun seed ->
      let d = Ee_rtl.Rtl_gen.generate seed in
      rtl_equiv d (Cutmap.run_rtl ~mode:Cutmap.Depth d) 30 (seed + 1))

let prop_ee_mode_equiv =
  qtest "EE-aware mapping preserves semantics" ~count:20 (fun seed ->
      let d = Ee_rtl.Rtl_gen.generate seed in
      rtl_equiv d (Cutmap.run_rtl ~mode:Cutmap.Ee_aware d) 30 (seed + 2))

let prop_depth_never_worse =
  qtest "depth mapping never deepens vs greedy" (fun seed ->
      let d = Ee_rtl.Rtl_gen.generate seed in
      Netlist.depth (Cutmap.run_rtl ~mode:Cutmap.Depth d) <= Netlist.depth (Techmap.run_rtl d))

let test_benchmark_equivalence () =
  List.iter
    (fun id ->
      let b = Ee_bench_circuits.Itc99.find id in
      let d = b.Ee_bench_circuits.Itc99.build () in
      List.iter
        (fun mode ->
          let nl = Cutmap.run_rtl ~mode d in
          Alcotest.(check bool) (id ^ " equiv") true (rtl_equiv d nl 50 7);
          (* The mapped netlist also goes through the full PL+EE flow. *)
          let pl = Ee_phased.Pl.of_netlist nl in
          let pl_ee, _ = Ee_core.Synth.run pl in
          Alcotest.(check bool) (id ^ " pl equiv") true
            (Ee_sim.Sim.equiv_random pl_ee nl ~vectors:40 ~seed:3))
        [ Cutmap.Depth; Cutmap.Ee_aware ])
    [ "b03"; "b09"; "b11" ]

let test_depth_improves_over_greedy () =
  (* The ripple-heavy b04 must get meaningfully shallower under the depth
     objective. *)
  let d = (Ee_bench_circuits.Itc99.find "b04").Ee_bench_circuits.Itc99.build () in
  let greedy = Netlist.depth (Techmap.run_rtl d) in
  let depth = Netlist.depth (Cutmap.run_rtl ~mode:Cutmap.Depth d) in
  Alcotest.(check bool)
    (Printf.sprintf "depth %d < greedy %d" depth greedy)
    true (depth < greedy)

let test_lut_invariants () =
  let d = (Ee_bench_circuits.Itc99.find "b07").Ee_bench_circuits.Itc99.build () in
  let nl = Cutmap.run_rtl ~mode:Cutmap.Ee_aware d in
  List.iter
    (fun i ->
      match Netlist.node nl i with
      | Netlist.Lut { func; fanin } ->
          let n = Array.length fanin in
          Alcotest.(check bool) "fanin 1..4" true (n >= 1 && n <= 4);
          Alcotest.(check int) "support within fanin" 0
            (Ee_logic.Lut4.support func land lnot (Ee_util.Bits.mask n))
      | _ -> ())
    (Netlist.lut_ids nl)

(* Marshal MD5s of the mapper outputs, pinned so a change to the labeler's
   data structures cannot move a single cut. *)
let md5 v = Digest.to_hex (Digest.string (Marshal.to_string v []))
let itc99 n = List.init n (fun i -> Printf.sprintf "b%02d" (i + 1))
let design id = (Ee_bench_circuits.Itc99.find id).Ee_bench_circuits.Itc99.build ()

let check_pinned what ids digest expected =
  Alcotest.(check (list string)) what expected (List.map digest ids)

let test_run_pinned () =
  List.iter
    (fun (mode, what, n, expected) ->
      check_pinned what (itc99 n) (fun id -> md5 (Cutmap.run_rtl ~mode (design id))) expected)
    [
      ( Cutmap.Depth,
        "Depth b01-b15",
        15,
        [
          "f92e91aaee932e1937c735b068cf9e8a"; "a20b144d3af23f998bb222608616c5f0";
          "4729f4952834cbd86c60d9f168944318"; "88f20b395abbcb949aaf340c499e9020";
          "9d6a075221c9bbfd6dda57503f599430"; "0770e5d8d639ae6a11974759582d8013";
          "4741df856592514a038701b89c427755"; "166d1e2d634514a7f8fe6abb035bd3d0";
          "ab9923d81e811658f713935dfaccd6b5"; "a28d091962322dc6fb23358e54c275db";
          "edd46d1c7ae1252ffcaeb674a321b064"; "f18c23b5b8e9a9170706da8629fe317c";
          "c3656907cc7055186e5ff570a38e0c17"; "5459c5b4b93cc2c8d902d516ce8376b7";
          "8d9a79b57837f93bc531c87c52e27bbf";
        ] );
      ( Cutmap.Delay,
        "Delay b01-b15",
        15,
        [
          "b0627adda89bdd59b5fcfa8948969af6"; "3c499b5d48acf92886827b07a2bcd712";
          "4b2eae4c32fdcc10bc890a6b80b9b32b"; "005c30f0bf1a548039aa181933fb011d";
          "fc86e310cb4d2b109065c87769223bd7"; "0770e5d8d639ae6a11974759582d8013";
          "2a685bb1cd1eeb43cb4273c614e9306c"; "6c13275e2ea106dd0f5b8d50894798c0";
          "38eee8cdc17105bf6aa3f75656d81775"; "cae9bca675d5393d8a700ac89d422980";
          "74f2f48120ffb736bff27a91dd18047a"; "129c1bbd3158e29a746b663520059b8c";
          "717cc130b8ecf0a8fe451537508e8cae"; "a5a0132645943b8860a08ad9199bb1ce";
          "71b342e5ad9d3b6f7a4cedb179c739f8";
        ] );
      ( Cutmap.Ee_aware,
        "Ee_aware b01-b09",
        9,
        [
          "4f20190a6a6bbb868d88f87584caecb5"; "3c499b5d48acf92886827b07a2bcd712";
          "5fba0919b73209b51ef71f73bcb9f469"; "6c5d19cd0c88f2751891d3233ac2693e";
          "20ffdf2dbcaeea9020af84846f048205"; "0770e5d8d639ae6a11974759582d8013";
          "a08c270d360e92bad49804799bd24362"; "b5abefe4de80f80c762859543aaf6a13";
          "6757e41d8cbaf9e34e3b04da22cfea5b";
        ] );
    ]

let test_wide_covers_pinned () =
  List.iter
    (fun (lut_k, expected) ->
      check_pinned
        (Printf.sprintf "wide_covers lut_k %d b01-b13" lut_k)
        (itc99 13)
        (fun id -> md5 (Cutmap.wide_covers ~lut_k (Ee_rtl.Elaborate.run (design id))))
        expected)
    [
      ( 6,
        [
          "d19b5769dc05adb761cb44221c7332f6"; "4f7e955ee7ea7530c50f4da6d1209b87";
          "6def613e4af6653382359a1d485915e8"; "f43b23d077c5b4bb092910ab6cc85b53";
          "755dd5eba736a8c81e09202b1267ec93"; "28869c2ffca067a4befa555cc8cfa802";
          "9b4f281469e4bd56b435b1db97c8d722"; "4a018d87f80b61941b1fbaae72e7e1fe";
          "7799ec86314ecf3d5c515e4cbf525e7c"; "0a279f01da67980560bd3d04d95ce481";
          "773aed805b17e56d02ce2a94da1b485a"; "f370b1f33ed4bdc530f0bca76735d883";
          "f1f07272e173e748ee5f6b26dd50d7df";
        ] );
      ( 8,
        [
          "52c8b8c02a9932ae9c0ac9060760ad78"; "4f7e955ee7ea7530c50f4da6d1209b87";
          "cf3416fb0a8290872e11ad748900837d"; "18864d76aaaceb59ef31cf1414bba4e1";
          "69f3ada9667047d15f1b3890ee3d6c23"; "28869c2ffca067a4befa555cc8cfa802";
          "3ba14801ad875bb4c063699abb3f10b3"; "50895f4b93d14c3765441b20c91c65d0";
          "729516589efc211f307419c9d097c6ac"; "182a9fd30810aca5801b27637a3c5875";
          "8eb10defa0c34c89cbdb2571f8494b65"; "2f0dc7b2a94ab6dfce528a33fff347c9";
          "4dc80185f4f4a96bce863176ed52fc5a";
        ] );
    ]

(* A reference copy of the list-based priority-cuts labeler: cuts are
   sorted [int list]s, merged by [List.sort_uniq compare], with every score
   recomputed inside the sort comparators.  [Cutmap.best_cuts] must choose
   the same cut for every gate. *)
module Reference = struct
  module Gates = Ee_rtl.Gates
  module Lut4 = Ee_logic.Lut4

  let is_leaf = function
    | Gates.Gconst _ | Gates.Ginput _ | Gates.Greg _ -> true
    | Gates.Gnot _ | Gates.Gand _ | Gates.Gor _ | Gates.Gxor _ | Gates.Gmux _ -> false

  let ee_expected_arrival gates root cut leaf_arrival =
    let f = Gates.cone_lut4 gates ~root ~leaves:cut in
    let arrivals = Array.of_list (List.map leaf_arrival cut) in
    let support = Lut4.support f in
    let m_max = Ee_util.Bits.fold_bits support (fun acc p -> max acc arrivals.(p)) 0. in
    let base = m_max +. 1. in
    List.fold_left
      (fun acc (c : Ee_core.Trigger.candidate) ->
        let t_max =
          Ee_util.Bits.fold_bits c.Ee_core.Trigger.subset (fun a p -> max a arrivals.(p)) 0.
        in
        if t_max >= m_max then acc
        else
          let p = float_of_int c.Ee_core.Trigger.coverage_count /. 16. in
          min acc ((p *. (t_max +. 1.)) +. ((1. -. p) *. base)))
      base (Ee_core.Trigger.candidates f)

  let label_cuts ~cap ~mode ~cuts_per_node (c : Gates.circuit) =
    let gates = c.Gates.gates in
    let n = Array.length gates in
    let refs = Array.make n 0 in
    Array.iter (fun g -> List.iter (fun f -> refs.(f) <- refs.(f) + 1) (Gates.fanins g)) gates;
    List.iter
      (fun (_, bits) -> Array.iter (fun g -> refs.(g) <- refs.(g) + 1) bits)
      (c.Gates.reg_next @ c.Gates.out_bits);
    let cut_lists = Array.make n [] in
    let labels = Array.make n 0. in
    let aflow = Array.make n 0. in
    let best_cut = Array.make n [] in
    let merge_cuts lists =
      let rec go acc = function
        | [] -> [ acc ]
        | options :: rest ->
            List.concat_map
              (fun cut ->
                let merged = List.sort_uniq compare (acc @ cut) in
                if List.length merged <= cap then go merged rest else [])
              options
      in
      go [] lists
    in
    let rec take k = function [] -> [] | _ when k = 0 -> [] | x :: r -> x :: take (k - 1) r in
    for i = 0 to n - 1 do
      if is_leaf gates.(i) then begin
        cut_lists.(i) <- [ [ i ] ];
        best_cut.(i) <- [ i ]
      end
      else begin
        let options = List.map (fun f -> cut_lists.(f)) (Gates.fanins gates.(i)) in
        let merged = List.sort_uniq compare (merge_cuts options) in
        let depth_score cut = 1. +. List.fold_left (fun acc l -> max acc labels.(l)) 0. cut in
        let pre =
          List.stable_sort
            (fun a b ->
              match compare (depth_score a) (depth_score b) with
              | 0 -> compare (List.length a) (List.length b)
              | x -> x)
            merged
        in
        let shortlist = take (max cuts_per_node 12) pre in
        let cut_aflow cut =
          (1. +. List.fold_left (fun acc l -> acc +. aflow.(l)) 0. cut)
          /. float_of_int (max refs.(i) 1)
        in
        let score cut =
          match mode with
          | Cutmap.Depth | Cutmap.Delay -> depth_score cut
          | Cutmap.Ee_aware -> ee_expected_arrival gates i cut (fun l -> labels.(l))
        in
        let tiebreak cut = match mode with Cutmap.Delay -> cut_aflow cut | _ -> 0. in
        let scored =
          List.stable_sort
            (fun (sa, ta, a) (sb, tb, b) ->
              match compare sa sb with
              | 0 -> (
                  match compare ta tb with
                  | 0 -> compare (List.length a) (List.length b)
                  | x -> x)
              | x -> x)
            (List.map (fun cut -> (score cut, tiebreak cut, cut)) shortlist)
        in
        match scored with
        | [] -> invalid_arg "no feasible cut"
        | (s, _, cut) :: _ ->
            labels.(i) <- s;
            aflow.(i) <- cut_aflow cut;
            best_cut.(i) <- cut;
            cut_lists.(i) <- [ i ] :: take cuts_per_node (List.map (fun (_, _, cut) -> cut) scored)
      end
    done;
    best_cut
end

let prop_labeler_matches_reference =
  qtest "labeler = list reference (3 modes, caps 4..8)" ~count:40 (fun seed ->
      let c = Ee_rtl.Elaborate.run (Ee_rtl.Rtl_gen.generate seed) in
      let cuts_per_node = [| 1; 2; 8 |].(seed mod 3) in
      List.for_all
        (fun (cap, mode) ->
          Cutmap.best_cuts ~cap ~mode ~cuts_per_node c
          = Array.map Array.of_list (Reference.label_cuts ~cap ~mode ~cuts_per_node c))
        [
          (4, Cutmap.Depth); (4, Cutmap.Delay); (4, Cutmap.Ee_aware); (6, Cutmap.Depth);
          (8, Cutmap.Depth); (5, Cutmap.Delay);
        ])

let suite =
  ( "cutmap",
    [
      Alcotest.test_case "benchmark equivalence" `Quick test_benchmark_equivalence;
      Alcotest.test_case "depth improves over greedy" `Quick test_depth_improves_over_greedy;
      Alcotest.test_case "lut invariants" `Quick test_lut_invariants;
      prop_depth_mode_equiv;
      prop_ee_mode_equiv;
      prop_depth_never_worse;
      Alcotest.test_case "run outputs pinned" `Quick test_run_pinned;
      Alcotest.test_case "wide_covers pinned" `Quick test_wide_covers_pinned;
      prop_labeler_matches_reference;
    ] )
