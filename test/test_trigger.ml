module Trigger = Ee_core.Trigger
module Lut4 = Ee_logic.Lut4
module Tt = Ee_logic.Truthtab

let lut_gen =
  QCheck.make
    ~print:(fun f -> Lut4.to_string f)
    (QCheck.Gen.map (fun v -> Lut4.of_int (v land 0xFFFF)) QCheck.Gen.int)

let qtest name ?(count = 300) gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen prop)

(* One subset's trigger of a LUT4 master, as a LUT4. *)
let trigger_function f ~subset =
  Lut4.of_truthtab (Trigger.trigger_function (Lut4.to_truthtab f) ~subset)

let coverage_count f ~subset = Lut4.count_ones (trigger_function f ~subset)

let test_paper_example () =
  (* Table 1: carry c(a+b)+ab over (a=2,b=1,c=0); trigger on {a,b} is
     ab + a'b' with coverage 50%. *)
  let c =
    List.find
      (fun c -> c.Trigger.subset = 0b110)
      (Trigger.candidates Trigger.full_adder_carry)
  in
  Alcotest.(check int) "coverage count (of 16)" 8 c.Trigger.coverage_count;
  Alcotest.(check (float 1e-9)) "coverage percent" 50. c.Trigger.coverage;
  Alcotest.(check bool) "trigger = xnor(a,b)" true
    (Lut4.equal c.Trigger.func Trigger.full_adder_carry_trigger)

let test_paper_all_subsets () =
  (* For the carry, singleton subsets of {a,b,c} yield zero coverage except
     none; pairs yield 50% each (generate/kill in each pairing). *)
  let cands = Trigger.candidates Trigger.full_adder_carry in
  Alcotest.(check int) "three viable candidates" 3 (List.length cands);
  List.iter
    (fun c ->
      Alcotest.(check int) "pair subset" 2 (Ee_util.Bits.popcount c.Trigger.subset);
      Alcotest.(check (float 1e-9)) "coverage 50" 50. c.Trigger.coverage)
    cands

let prop_trigger_semantics =
  qtest "trigger=1 exactly when the master is decided by the subset"
    (QCheck.pair lut_gen (QCheck.int_range 1 14))
    (fun (f, subset) ->
      let trig = trigger_function f ~subset in
      List.for_all
        (fun m ->
          Lut4.eval_bits trig m = (Lut4.constant_under f ~subset ~assignment:m <> None))
        (List.init 16 Fun.id))

let prop_trigger_support_within_subset =
  qtest "trigger depends only on subset inputs"
    (QCheck.pair lut_gen (QCheck.int_range 1 14))
    (fun (f, subset) ->
      Lut4.support (trigger_function f ~subset) land lnot subset = 0)

let prop_trigger_monotone_in_subset =
  qtest "larger subsets never lose coverage" lut_gen (fun f ->
      (* For nested subsets S ⊆ S', coverage(S) <= coverage(S'). *)
      List.for_all
        (fun (s, s') ->
          coverage_count f ~subset:s <= coverage_count f ~subset:s')
        [ (0b0001, 0b0011); (0b0010, 0b0110); (0b0011, 0b0111); (0b0101, 0b1101) ])

let prop_early_value_is_correct =
  (* The safety argument for EE: whenever the trigger fires 1, evaluating
     the master with ANY values of the non-subset inputs gives the same
     output. *)
  qtest "early evaluation never changes the output"
    (QCheck.pair lut_gen (QCheck.int_range 1 14))
    (fun (f, subset) ->
      let trig = trigger_function f ~subset in
      List.for_all
        (fun m ->
          (not (Lut4.eval_bits trig m))
          || List.for_all
               (fun m' ->
                 m' land subset <> m land subset
                 || Lut4.eval_bits f m' = Lut4.eval_bits f m)
               (List.init 16 Fun.id))
        (List.init 16 Fun.id))

let prop_candidates_are_proper_support_subsets =
  qtest "candidates use non-empty strict subsets of the support" lut_gen (fun f ->
      let support = Lut4.support f in
      List.for_all
        (fun c ->
          c.Trigger.subset <> 0
          && c.Trigger.subset <> support
          && c.Trigger.subset land lnot support = 0
          && c.Trigger.coverage_count > 0)
        (Trigger.candidates f))

let prop_cube_route_agrees =
  (* The paper derives triggers from prime cube lists (Table 2); the
     truth-table route used by the implementation must agree. *)
  qtest "cube-list route = truth-table route" ~count:200
    (QCheck.pair lut_gen (QCheck.int_range 1 14))
    (fun (f, subset) ->
      let cl = Ee_logic.Cubelist.of_truthtab (Lut4.to_truthtab f) in
      let via_cubes = Ee_logic.Cubelist.trigger_on_set cl ~subset in
      Tt.equal via_cubes (Lut4.to_truthtab (trigger_function f ~subset)))

let test_xor_has_no_candidates () =
  let x = Lut4.logxor (Lut4.var 0) (Lut4.logxor (Lut4.var 1) (Lut4.var 2)) in
  Alcotest.(check int) "xor3 has none" 0 (List.length (Trigger.candidates x))

let test_and4_candidates () =
  let a =
    Lut4.logand (Lut4.var 0) (Lut4.logand (Lut4.var 1) (Lut4.logand (Lut4.var 2) (Lut4.var 3)))
  in
  (* Every non-empty strict subset can kill (some input 0 -> output 0). *)
  Alcotest.(check int) "all 14 subsets viable" 14 (List.length (Trigger.candidates a));
  (* Single-variable subset {0}: f is 0 whenever x0 = 0 — half the space. *)
  Alcotest.(check int) "kill coverage" 8 (coverage_count a ~subset:0b0001)

let test_constant_function () =
  Alcotest.(check int) "constant has no candidates" 0
    (List.length (Trigger.candidates Lut4.const0))

let suite =
  ( "trigger",
    [
      Alcotest.test_case "paper Table 1 example" `Quick test_paper_example;
      Alcotest.test_case "paper: all carry subsets" `Quick test_paper_all_subsets;
      Alcotest.test_case "xor has no candidates" `Quick test_xor_has_no_candidates;
      Alcotest.test_case "and4 candidates" `Quick test_and4_candidates;
      Alcotest.test_case "constant function" `Quick test_constant_function;
      prop_trigger_semantics;
      prop_trigger_support_within_subset;
      prop_trigger_monotone_in_subset;
      prop_early_value_is_correct;
      prop_candidates_are_proper_support_subsets;
      prop_cube_route_agrees;
    ] )
