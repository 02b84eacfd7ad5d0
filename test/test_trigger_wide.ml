module Trigger = Ee_core.Trigger
module Tt = Ee_logic.Truthtab

let qtest name ?(count = 150) gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen prop)

let lut_gen =
  QCheck.make
    ~print:(fun f -> Ee_logic.Lut4.to_string f)
    (QCheck.Gen.map (fun v -> Ee_logic.Lut4.of_int (v land 0xFFFF)) QCheck.Gen.int)

let tt_gen arity =
  QCheck.make
    ~print:Tt.to_string
    (QCheck.Gen.map (fun seed -> Tt.random (Ee_util.Prng.create seed) arity) QCheck.Gen.int)

let prop_matches_lut4 =
  qtest "arity-4 agrees with the LUT4 engine" lut_gen (fun f ->
      Trigger.extract (Ee_logic.Lut4.to_truthtab f)
      = List.map
          (fun (c : Trigger.candidate) ->
            { c with Trigger.func = Ee_logic.Lut4.to_truthtab c.Trigger.func })
          (Trigger.candidates f))

let prop_semantics_arity6 =
  qtest "trigger semantics at arity 6" ~count:40 (tt_gen 6) (fun f ->
      List.for_all
        (fun (c : Trigger.wide) ->
          (* Spot-check a handful of minterms per candidate. *)
          List.for_all
            (fun m ->
              Tt.eval c.Trigger.func m = (Tt.constant_under f ~subset:c.Trigger.subset ~assignment:m <> None))
            [ 0; 7; 21; 42; 63 ])
        (Trigger.extract f))

let prop_candidate_count_bound =
  qtest "at most 2^k - 2 candidates" (tt_gen 5) (fun f ->
      let k = Ee_util.Bits.popcount (Tt.support f) in
      List.length (Trigger.extract f) <= max 0 ((1 lsl k) - 2))

let test_wide_adder_carry () =
  (* Carry-out of a 5-input majority-style function: triggers exist on the
     early pairs exactly as at arity 3. *)
  let f =
    (* carry(a4..a0) = 1 iff at least 3 inputs set: a symmetric function
       whose single-variable cofactors are never constant but whose
       2-subsets can decide when combined with symmetry. *)
    Tt.of_fun 5 (fun m -> Ee_util.Bits.popcount m >= 3)
  in
  let cands = Trigger.extract f in
  Alcotest.(check bool) "some candidates" true (cands <> []);
  List.iter
    (fun (c : Trigger.wide) ->
      Alcotest.(check bool) "only >=3-subsets can decide majority-of-5" true
        (Ee_util.Bits.popcount c.Trigger.subset >= 3))
    cands

let test_xor6_immune () =
  let f = Tt.of_fun 6 (fun m -> Ee_util.Bits.popcount m land 1 = 1) in
  Alcotest.(check int) "xor6 has no candidates" 0 (List.length (Trigger.extract f))

let suite =
  ( "trigger-wide",
    [
      Alcotest.test_case "majority-of-5" `Quick test_wide_adder_carry;
      Alcotest.test_case "xor6 immune" `Quick test_xor6_immune;
      prop_matches_lut4;
      prop_semantics_arity6;
      prop_candidate_count_bound;
    ] )
