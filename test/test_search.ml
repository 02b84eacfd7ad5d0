(* The CEGIS trigger search: equivalence with brute force,
   pruning, budgets, the Pareto front and shared-trigger selection. *)

module Bits = Ee_util.Bits
module Tt = Ee_logic.Truthtab
module Lut4 = Ee_logic.Lut4
module Cube = Ee_logic.Cube
module Bdd = Ee_logic.Bdd
module Trigger = Ee_core.Trigger
module Trigger_wide = Ee_core.Trigger_wide
module Mcr_select = Ee_core.Mcr_select
module Cegis = Ee_search.Cegis
module Driver = Ee_search.Driver
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
(* CEGIS                                                               *)
(* ------------------------------------------------------------------ *)

(* The reference semantics: the minterm-scanning maximal trigger. *)
let ref_trigger tt ~subset = Trigger_wide.trigger_function tt ~subset

let test_cegis_exact () =
  (* The paper's running AND example: a controlling value on one input
     alone decides the output. *)
  let tt = Lut4.to_truthtab (Lut4.logand (Lut4.var 0) (Lut4.var 1)) in
  let ctx = Cegis.ctx tt in
  let r = Cegis.synthesize ctx ~subset:0b01 in
  Alcotest.(check bool) "exact" true r.Cegis.exact;
  Alcotest.(check bool)
    "matches reference" true
    (Tt.equal r.Cegis.func (ref_trigger tt ~subset:0b01));
  (* a=0 decides the AND: 8 of 16 minterms. *)
  Alcotest.(check int) "coverage" 8 r.Cegis.coverage_count;
  Alcotest.(check int) "one cube" 1 (List.length r.Cegis.cubes)

let prop_cegis_matches_reference =
  qtest "cegis func = minterm-scan trigger (arity 5)" ~count:60 (tt_gen 5)
    (fun tt ->
      let ctx = Cegis.ctx tt in
      List.for_all
        (fun subset ->
          let r = Cegis.synthesize ctx ~subset in
          r.Cegis.exact && Tt.equal r.Cegis.func (ref_trigger tt ~subset))
        (Bits.all_nonempty_proper_subsets (Bits.mask 5)))

let prop_cegis_budget_sound =
  qtest "budgeted cegis is a sound monotone under-approximation" ~count:60
    (tt_gen 5) (fun tt ->
      let ctx = Cegis.ctx tt in
      List.for_all
        (fun subset ->
          let exact = Cegis.synthesize ctx ~subset in
          let results =
            List.map
              (fun b ->
                let r = Cegis.synthesize ~max_cubes:b ctx ~subset in
                (* Within budget, and every ON-minterm of the budgeted
                   trigger is an ON-minterm of the exact one. *)
                ( List.length r.Cegis.cubes <= b
                  && Tt.equal
                       (Tt.logand r.Cegis.func exact.Cegis.func)
                       r.Cegis.func,
                  r.Cegis.coverage_count ))
              [ 1; 2; 3 ]
          in
          List.for_all fst results
          &&
          (* Greedy coverage is monotone in the budget. *)
          let cs = List.map snd results in
          List.sort compare cs = cs)
        (Bits.all_nonempty_proper_subsets (Tt.support tt)))

let test_cegis_parity () =
  (* Parity is undecidable from any strict subset: every spec is empty and
     the loop must converge on the constant-false trigger. *)
  let tt = Tt.of_fun 4 (fun m -> Bits.popcount m mod 2 = 1) in
  let ctx = Cegis.ctx tt in
  List.iter
    (fun subset ->
      let r = Cegis.synthesize ctx ~subset in
      Alcotest.(check int) "no coverage" 0 r.Cegis.coverage_count;
      Alcotest.(check bool)
        "trigger matches reference" true
        (Tt.equal r.Cegis.func (ref_trigger tt ~subset)))
    (Bits.all_nonempty_proper_subsets 0b1111)

(* ------------------------------------------------------------------ *)
(* Driver vs brute force                                               *)
(* ------------------------------------------------------------------ *)

let prop_driver_equals_brute arity =
  qtest
    (Printf.sprintf "driver = brute force (arity %d)" arity)
    (tt_gen arity)
    (fun tt -> Driver.agrees_with_brute tt)

let prop_driver_pruned_equals_brute =
  qtest "pruned driver = pruned brute force (arity 5)" ~count:60 (tt_gen 5)
    (fun tt ->
      Driver.agrees_with_brute ~min_coverage:25. tt
      && Driver.agrees_with_brute ~top_k:4 tt
      && Driver.agrees_with_brute ~min_coverage:12.5 ~top_k:3 tt)

let test_driver_exhaustive_lut4 () =
  (* Every one of the 65 536 LUT4 functions — the paper's own enumeration
     universe.  The search must reproduce Trigger.candidates exactly. *)
  let bad = ref 0 and first = ref (-1) in
  for f = 0 to 65535 do
    let lut = Lut4.of_int f in
    let narrow = Trigger.candidates lut in
    let searched = Driver.candidates (Lut4.to_truthtab lut) in
    let ok =
      List.length searched = List.length narrow
      && List.for_all2
           (fun (s : Driver.candidate) (n : Trigger.candidate) ->
             s.Driver.subset = n.Trigger.subset
             && s.Driver.coverage_count = n.Trigger.coverage_count
             && s.Driver.exact
             && Tt.equal s.Driver.func (Lut4.to_truthtab n.Trigger.func))
           searched narrow
    in
    if not ok then begin
      incr bad;
      if !first < 0 then first := f
    end
  done;
  Alcotest.(check int)
    (Printf.sprintf "mismatching functions (first: %d)" !first)
    0 !bad

let test_driver_pruning_work () =
  (* A 6-input single-minterm function under a 99% floor: the six arity-5
     supports get probed (96.9% spec coverage), and their recorded bounds
     prune every smaller support without another BDD probe. *)
  let tt = Tt.of_fun 6 (fun m -> m = 0b101010) in
  let cands, stats = Driver.search ~min_coverage:99. tt in
  Alcotest.(check (list int)) "nothing passes the floor" []
    (List.map (fun (c : Driver.candidate) -> c.Driver.subset) cands);
  Alcotest.(check int) "only the top layer probed" 6 stats.Driver.probed;
  Alcotest.(check bool) "pruned the rest" true (stats.Driver.bound_pruned > 0);
  Alcotest.(check int) "accounting adds up" stats.Driver.supports
    (stats.Driver.probed + stats.Driver.bound_pruned)

(* ------------------------------------------------------------------ *)
(* Trigger_wide pruning                                                *)
(* ------------------------------------------------------------------ *)

let test_wide_prune () =
  let tt = Lut4.to_truthtab (Lut4.of_int 0b1000_0000_0000_0000) in
  let all = Trigger_wide.candidates tt in
  let top2 = Trigger_wide.candidates ~top_k:2 tt in
  Alcotest.(check bool) "top2 size" true (List.length top2 <= 2);
  Alcotest.(check bool)
    "top2 from all" true
    (List.for_all (fun c -> List.mem c all) top2);
  let via_prune = Trigger_wide.prune ~top_k:2 all in
  Alcotest.(check bool) "prune consistent" true (top2 = via_prune);
  let strong = Trigger_wide.candidates ~min_coverage:80. tt in
  Alcotest.(check bool)
    "floor respected" true
    (List.for_all
       (fun (c : Trigger_wide.candidate) -> c.Trigger_wide.coverage >= 80.)
       strong)

let prop_wide_prune_is_filter =
  qtest "candidates ?knobs = prune (candidates)" ~count:60 (tt_gen 5)
    (fun tt ->
      let all = Trigger_wide.candidates tt in
      Trigger_wide.candidates ~min_coverage:30. tt
      = Trigger_wide.prune ~min_coverage:30. all
      && Trigger_wide.candidates ~top_k:3 tt = Trigger_wide.prune ~top_k:3 all)

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
      match Trigger_wide.candidates tt with
      | [] -> front = []
      | cands ->
          let best =
            List.fold_left
              (fun acc (c : Trigger_wide.candidate) ->
                max acc c.Trigger_wide.coverage_count)
              0 cands
          in
          List.exists (fun p -> p.Pareto.pt_coverage_count = best) front)

(* ------------------------------------------------------------------ *)
(* Bdd additions                                                       *)
(* ------------------------------------------------------------------ *)

let prop_bdd_any_sat =
  qtest "any_sat finds a model iff one exists" (tt_gen 5) (fun tt ->
      let m = Bdd.manager () in
      let b = Bdd.of_truthtab m tt in
      match Bdd.any_sat m b with
      | Some w -> Tt.eval tt w
      | None -> Tt.count_ones tt = 0)

let prop_bdd_quantifiers =
  qtest "forall_mask/exists_mask agree with Truthtab" (tt_gen 5) (fun tt ->
      let m = Bdd.manager () in
      let b = Bdd.of_truthtab m tt in
      List.for_all
        (fun mask ->
          let fa = Bits.fold_bits mask (fun acc v -> Tt.forall acc ~var:v) tt in
          let ex = Bits.fold_bits mask (fun acc v -> Tt.exists acc ~var:v) tt in
          Tt.equal (Bdd.to_truthtab m (Bdd.forall_mask m b ~mask) ~arity:5) fa
          && Tt.equal (Bdd.to_truthtab m (Bdd.exists_mask m b ~mask) ~arity:5) ex)
        [ 0b00001; 0b10100; 0b11111; 0 ])

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
      Alcotest.test_case "cegis exact AND" `Quick test_cegis_exact;
      prop_cegis_matches_reference;
      prop_cegis_budget_sound;
      Alcotest.test_case "cegis parity" `Quick test_cegis_parity;
      prop_driver_equals_brute 2;
      prop_driver_equals_brute 3;
      prop_driver_equals_brute 4;
      prop_driver_equals_brute 5;
      prop_driver_pruned_equals_brute;
      Alcotest.test_case "driver exhaustive LUT4" `Slow
        test_driver_exhaustive_lut4;
      Alcotest.test_case "driver pruning accounting" `Quick
        test_driver_pruning_work;
      Alcotest.test_case "trigger_wide prune" `Quick test_wide_prune;
      prop_wide_prune_is_filter;
      prop_pareto_front;
      prop_bdd_any_sat;
      prop_bdd_quantifiers;
      Alcotest.test_case "select never regresses" `Quick
        test_select_never_regresses;
      Alcotest.test_case "select sharing consistency" `Quick
        test_select_sharing_consistency;
      Alcotest.test_case "pl canonical merge" `Quick test_pl_canonical_merge;
    ] )
