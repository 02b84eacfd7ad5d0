(* The trigger extractor at every arity: equivalence with the minterm
   scan, a pin on the ITC99 wide cones, pruning, the Pareto front and
   shared-trigger selection. *)

module Bits = Ee_util.Bits
module Tt = Ee_logic.Truthtab
module Lut4 = Ee_logic.Lut4
module Trigger = Ee_core.Trigger
module Mcr_select = Ee_core.Mcr_select
module Pareto = Ee_search.Pareto
module Search_select = Ee_search.Search_select
module Pl = Ee_phased.Pl
module Netlist = Ee_netlist.Netlist

let qtest name ?(count = 100) gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen prop)

let tt_gen arity =
  QCheck.make ~print:Tt.to_string
    (QCheck.Gen.map
       (fun seed -> Tt.random (Ee_util.Prng.create seed) arity)
       (QCheck.Gen.int_bound 1_000_000))

(* ------------------------------------------------------------------ *)
(* Extractor vs the minterm scan                                       *)
(* ------------------------------------------------------------------ *)

(* Every support subset's trigger by the constant_under scan, with
   zero-coverage subsets dropped: what [Trigger.extract] must return. *)
let scan_candidates tt =
  let size = float_of_int (1 lsl Tt.arity tt) in
  List.filter_map
    (fun subset ->
      let func = Trigger.scan_function tt ~subset in
      let coverage_count = Tt.count_ones func in
      if coverage_count = 0 then None
      else
        Some
          {
            Trigger.subset;
            func;
            coverage_count;
            coverage = 100. *. float_of_int coverage_count /. size;
          })
    (Bits.all_nonempty_proper_subsets (Tt.support tt))

let prop_extract_equals_scan =
  qtest "extractor = constant_under scan" ~count:60
    QCheck.(
      make
        ~print:(fun tt -> Tt.to_string tt)
        Gen.(
          map2
            (fun arity seed -> Tt.random (Ee_util.Prng.create seed) arity)
            (int_range 5 8) (int_bound 1_000_000)))
    (fun tt ->
      let scanned = scan_candidates tt in
      Trigger.extract tt = scanned
      && Trigger.extract ~min_coverage:25. tt = Trigger.prune ~min_coverage:25. scanned
      && Trigger.extract ~top_k:4 tt = Trigger.prune ~top_k:4 scanned
      && Trigger.extract ~min_coverage:12.5 ~top_k:3 tt
         = Trigger.prune ~min_coverage:12.5 ~top_k:3 scanned
      && List.for_all
           (fun subset ->
             Tt.equal (Trigger.trigger_function tt ~subset) (Trigger.scan_function tt ~subset))
           [ 0b1; 0b110; 0b10101; 0b11110 ])

(* The per-arity properties below keep the names they had when a separate
   search driver and CEGIS loop produced the candidates; [Trigger.extract]
   is that driver now, and [Trigger.trigger_function] the synthesized
   trigger.  "Brute force" is the constant_under scan. *)
let prop_driver_equals_brute arity =
  qtest
    (Printf.sprintf "driver = brute force (arity %d)" arity)
    (tt_gen arity)
    (fun tt -> Trigger.extract tt = scan_candidates tt)

let prop_driver_pruned_equals_brute =
  qtest "pruned driver = pruned brute force (arity 5)" ~count:60 (tt_gen 5)
    (fun tt ->
      let scanned = scan_candidates tt in
      Trigger.extract ~min_coverage:25. tt = Trigger.prune ~min_coverage:25. scanned
      && Trigger.extract ~top_k:4 tt = Trigger.prune ~top_k:4 scanned
      && Trigger.extract ~min_coverage:12.5 ~top_k:3 tt
         = Trigger.prune ~min_coverage:12.5 ~top_k:3 scanned)

let prop_cegis_matches_reference =
  qtest "cegis func = minterm-scan trigger (arity 5)" ~count:60 (tt_gen 5)
    (fun tt ->
      List.for_all
        (fun subset ->
          Tt.equal (Trigger.trigger_function tt ~subset) (Trigger.scan_function tt ~subset))
        (Bits.all_nonempty_proper_subsets (Bits.mask 5)))

let test_exhaustive_lut4 () =
  (* Every one of the 65 536 LUT4 functions — the paper's own enumeration
     universe — against a trigger tabulated from Lut4.constant_under. *)
  let memo = Trigger.Memo.create () in
  let bad = ref 0 and first = ref (-1) in
  for f = 0 to 65535 do
    let lut = Lut4.of_int f in
    let expected =
      List.filter_map
        (fun subset ->
          let func =
            Lut4.of_truthtab
              (Tt.of_fun 4 (fun m -> Lut4.constant_under lut ~subset ~assignment:m <> None))
          in
          let n = Lut4.count_ones func in
          if n = 0 then None else Some (subset, n, func))
        (Bits.all_nonempty_proper_subsets (Lut4.support lut))
    in
    let got =
      List.map
        (fun (c : Trigger.candidate) ->
          (c.Trigger.subset, c.Trigger.coverage_count, c.Trigger.func))
        (Trigger.candidates ~memo lut)
    in
    if got <> expected then begin
      incr bad;
      if !first < 0 then first := f
    end
  done;
  Alcotest.(check int)
    (Printf.sprintf "mismatching functions (first: %d)" !first)
    0 !bad

(* A digest of (subset, coverage_count, func) over every candidate of every
   LUT-6 cone wider than four inputs, pinned from the minterm-scan
   extractor this one replaced. *)
let test_wide_cones_pinned () =
  let digest id =
    let design = (Ee_bench_circuits.Itc99.find id).Ee_bench_circuits.Itc99.build () in
    let b = Buffer.create 4096 in
    List.iter
      (fun w ->
        if List.length w.Ee_rtl.Cutmap.wleaves > 4 then
          List.iter
            (fun (c : Trigger.wide) ->
              Printf.bprintf b "%d:%d:%s;" c.Trigger.subset c.Trigger.coverage_count
                (Tt.to_string c.Trigger.func))
            (Trigger.extract w.Ee_rtl.Cutmap.wfunc))
      (Ee_rtl.Cutmap.wide_covers ~lut_k:6 (Ee_rtl.Elaborate.run design));
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  Alcotest.(check (list string))
    "LUT-6 wide-cone candidates b01-b13"
    [
      "e28f3512d0d8017078385bd4c112faf1"; "0e800c04d450bbb411d0d8c0526b05be";
      "9f9550228b246ded3932085ea27121cf"; "28a317cd47e98d559f30ff515690b2e1";
      "5ed90ae2a3b69dea3ce7a005cdce3dde"; "d41d8cd98f00b204e9800998ecf8427e";
      "2f142d42981af6209f6e83dee2122437"; "794926fdd9679c32a950f44f14b24026";
      "f0f719ac5025f4119643c40251dcac7b"; "be1daa88b1776b48692e53feee059516";
      "648da2a104bf40cee783a7c8626151bb"; "37ec0e6201e472f6dbd0e649f0a04f5e";
      "cce46b1c42f94130af79db1a7d4d4e7f";
    ]
    (List.init 13 (fun i -> digest (Printf.sprintf "b%02d" (i + 1))))

(* ------------------------------------------------------------------ *)
(* Pruning                                                             *)
(* ------------------------------------------------------------------ *)

let test_wide_prune () =
  let tt = Lut4.to_truthtab (Lut4.of_int 0b1000_0000_0000_0000) in
  let all = Trigger.extract tt in
  let top2 = Trigger.extract ~top_k:2 tt in
  Alcotest.(check bool) "top2 size" true (List.length top2 <= 2);
  Alcotest.(check bool)
    "top2 from all" true
    (List.for_all (fun c -> List.mem c all) top2);
  let via_prune = Trigger.prune ~top_k:2 all in
  Alcotest.(check bool) "prune consistent" true (top2 = via_prune);
  let strong = Trigger.extract ~min_coverage:80. tt in
  Alcotest.(check bool)
    "floor respected" true
    (List.for_all (fun (c : Trigger.wide) -> c.Trigger.coverage >= 80.) strong);
  (* AND4's four three-input subsets tie at 87.5 %: ties go to the smaller
     subset, and [best] keeps best-first order. *)
  let and4 = Tt.of_fun 4 (fun m -> m = 15) in
  Alcotest.(check (list int))
    "best 2 of AND4" [ 0b0111; 0b1011 ]
    (List.map (fun (c : Trigger.wide) -> c.Trigger.subset) (Trigger.best 2 (Trigger.extract and4)))

let prop_wide_prune_is_filter =
  qtest "candidates ?knobs = prune (candidates)" ~count:60 (tt_gen 5)
    (fun tt ->
      let all = Trigger.extract tt in
      Trigger.extract ~min_coverage:30. tt = Trigger.prune ~min_coverage:30. all
      && Trigger.extract ~top_k:3 tt = Trigger.prune ~top_k:3 all)

(* ------------------------------------------------------------------ *)
(* Pareto                                                              *)
(* ------------------------------------------------------------------ *)

let prop_pareto_front =
  qtest "pareto front is non-dominated and anchored" ~count:150 (tt_gen 4)
    (fun tt ->
      let front = Pareto.front tt in
      List.for_all
        (fun p ->
          not (List.exists (fun q -> q <> p && Pareto.dominates q p) front))
        front
      &&
      (* Coverage strictly increases with cube count along the front. *)
      let sorted =
        List.sort (fun a b -> compare a.Pareto.pt_cubes b.Pareto.pt_cubes) front
      in
      let rec increasing = function
        | a :: (b :: _ as r) ->
            a.Pareto.pt_coverage_count < b.Pareto.pt_coverage_count
            && increasing r
        | _ -> true
      in
      increasing sorted
      &&
      (* The best exact candidate appears on the front. *)
      match Trigger.extract tt with
      | [] -> front = []
      | cands ->
          let best =
            List.fold_left
              (fun acc (c : Trigger.wide) -> max acc c.Trigger.coverage_count)
              0 cands
          in
          List.exists (fun p -> p.Pareto.pt_coverage_count = best) front)

(* ------------------------------------------------------------------ *)
(* Shared-trigger selection                                            *)
(* ------------------------------------------------------------------ *)

let and2 = Lut4.logand (Lut4.var 0) (Lut4.var 1)

(* Two identical AND gates fed by the same two registers with {e permuted}
   fanin, plus an XOR combining them: the canonical sharing opportunity. *)
let shared_pl () =
  let b = Netlist.builder () in
  let a = Netlist.add_dff b ~init:false in
  let c = Netlist.add_dff b ~init:true in
  let g1 = Netlist.add_lut b and2 [| a; c |] in
  let g2 = Netlist.add_lut b and2 [| c; a |] in
  let x = Netlist.add_lut b (Lut4.logxor (Lut4.var 0) (Lut4.var 1)) [| g1; g2 |] in
  Netlist.connect_dff b a ~d:x;
  Netlist.connect_dff b c ~d:g1;
  Netlist.set_output b "y" g2;
  Pl.of_netlist (Netlist.finalize b)

let test_select_never_regresses () =
  let pl = shared_pl () in
  let _, r = Search_select.run pl in
  Alcotest.(check bool)
    "lambda <= mcr floor" true
    (r.Search_select.lambda <= r.Search_select.lambda_mcr);
  Alcotest.(check bool) "no fallback" true (not r.Search_select.fell_back)

let test_select_sharing_consistency () =
  let pl = shared_pl () in
  let opts =
    {
      Search_select.default_options with
      Search_select.base =
        { Mcr_select.default_options with Mcr_select.min_gain_percent = 0. };
    }
  in
  let pl', r = Search_select.run ~options:opts pl in
  match r.Search_select.shared_groups with
  | [] ->
      (* Nothing accepted is legal (everything is λ-gated), but then the
         period must sit exactly on the MCR floor. *)
      Alcotest.(check (float 0.)) "mcr lambda kept" r.Search_select.lambda_mcr
        r.Search_select.lambda
  | g :: _ ->
      Alcotest.(check bool)
        "group has 2+ masters" true
        (List.length g.Search_select.sg_masters >= 2);
      (* The member triggers merged structurally: strictly fewer trigger
         gates than EE-annotated masters. *)
      let with_ee = ref 0 in
      Array.iteri
        (fun i _ -> if Pl.ee pl' i <> None then incr with_ee)
        (Pl.gates pl');
      Alcotest.(check bool)
        "triggers merged" true
        (Pl.ee_gate_count pl' < !with_ee)

let test_pl_canonical_merge () =
  (* with_ee_shared must merge permuted-fanin identical triggers: g1 reads
     (a, c), g2 reads (c, a); the symmetric conjunction trigger over both
     signals canonicalizes to the same trigger gate for both masters. *)
  let pl = shared_pl () in
  let masters =
    Array.to_list (Array.mapi (fun i g -> (i, g)) (Pl.gates pl))
    |> List.filter_map (fun (i, (g : Pl.gate)) ->
           match g.Pl.kind with
           | Pl.Gate f when Lut4.equal f and2 -> Some i
           | _ -> None)
  in
  match masters with
  | [ m1; m2 ] ->
      let mk m =
        ( m,
          {
            Pl.req_support = 0b0011;
            req_func = and2;
            req_coverage = 100. *. float_of_int (Lut4.count_ones and2) /. 16.;
            req_cost = 0.;
          } )
      in
      let pl_sym = Pl.with_ee_shared pl [ mk m1; mk m2 ] in
      Alcotest.(check int) "one shared trigger across permuted fanin" 1
        (Pl.ee_gate_count pl_sym);
      Alcotest.(check bool) "both masters annotated" true
        (Pl.ee pl_sym m1 <> None && Pl.ee pl_sym m2 <> None)
  | _ -> Alcotest.fail "expected exactly two AND masters"

let suite =
  ( "search",
    [
      prop_extract_equals_scan;
      prop_cegis_matches_reference;
      prop_driver_equals_brute 2;
      prop_driver_equals_brute 3;
      prop_driver_equals_brute 4;
      prop_driver_equals_brute 5;
      prop_driver_pruned_equals_brute;
      Alcotest.test_case "exhaustive LUT4 = constant_under" `Slow test_exhaustive_lut4;
      Alcotest.test_case "wide-cone extractor pin b01-b13" `Quick test_wide_cones_pinned;
      Alcotest.test_case "trigger_wide prune" `Quick test_wide_prune;
      prop_wide_prune_is_filter;
      prop_pareto_front;
      Alcotest.test_case "select never regresses" `Quick
        test_select_never_regresses;
      Alcotest.test_case "select sharing consistency" `Quick
        test_select_sharing_consistency;
      Alcotest.test_case "pl canonical merge" `Quick test_pl_canonical_merge;
    ] )
