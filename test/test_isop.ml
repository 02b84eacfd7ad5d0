module Isop = Ee_logic.Isop
module Tt = Ee_logic.Truthtab
module Cube = Ee_logic.Cube
module Qm = Ee_logic.Qm

let tt_gen arity =
  QCheck.make
    ~print:(fun t -> Tt.to_string t)
    (QCheck.Gen.map (fun seed -> Tt.random (Ee_util.Prng.create seed) arity) QCheck.Gen.int)

let qtest name ?(count = 200) gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen prop)

let prop_exact_cover =
  qtest "cover is exactly the ON-set" (tt_gen 5) (fun f ->
      Tt.equal f (Qm.cubes_to_truthtab ~nvars:5 (Isop.cover f)))

let prop_implicants =
  qtest "every cube is an implicant" (tt_gen 4) (fun f ->
      List.for_all
        (fun c -> List.for_all (Tt.eval f) (Cube.minterms ~nvars:4 c))
        (Isop.cover f))

let prop_irredundant =
  qtest "cover is irredundant" (tt_gen 4) (fun f -> Isop.is_irredundant f (Isop.cover f))

let prop_no_bigger_than_qm =
  qtest "not larger than the greedy prime cover (small arities)" (tt_gen 3) (fun f ->
      List.length (Isop.cover f) <= List.length (Qm.cover f) + 1)

let test_known_functions () =
  let check s expected =
    let cubes = List.map (Cube.to_string ~nvars:(Ee_util.Bits.log2_ceil (String.length s)))
        (Isop.cover (Tt.of_string s))
    in
    Alcotest.(check (list string)) s expected (List.sort compare cubes)
  in
  (* Constant false: empty; constant true: universe. *)
  check "0000" [];
  check "1111" [ "--" ];
  (* x AND y. *)
  check "1000" [ "11" ];
  (* XOR needs both minterms. *)
  check "0110" [ "01"; "10" ];
  (* The paper's carry: three primes, all essential. *)
  check "11101000" [ "-11"; "1-1"; "11-" ]

let test_arity_zero_and_one () =
  Alcotest.(check int) "const0 arity1" 0 (List.length (Isop.cover (Tt.create 1)));
  let c = Isop.cover (Tt.var 1 0) in
  Alcotest.(check (list string)) "projection" [ "1" ]
    (List.map (Cube.to_string ~nvars:1) c)

let test_is_irredundant_detects_redundancy () =
  let f = Tt.of_string "1110" in
  (* OR of two vars; cover {1-, -1} irredundant; adding 11 makes it
     redundant. *)
  let good = [ Cube.of_string "1-"; Cube.of_string "-1" ] in
  let bad = Cube.of_string "11" :: good in
  Alcotest.(check bool) "good" true (Isop.is_irredundant f good);
  Alcotest.(check bool) "bad" false (Isop.is_irredundant f bad)

(* [choose]: the constant of a constant function, else the shorter cover
   of the ON-set or the OFF-set (the ON-set on a tie), never an empty OFF
   cover. *)
let prop_choose =
  qtest "choose: constant, or the shorter of ON and OFF covers" (tt_gen 2) (fun f ->
      let on = Isop.cover f and off = Isop.cover (Tt.lognot f) in
      match Isop.choose f with
      | Isop.Const v -> Tt.is_const f = Some v
      | Isop.On c -> Tt.is_const f = None && c = on && List.length on <= List.length off
      | Isop.Off c -> Tt.is_const f = None && c = off && c <> [] && List.length off < List.length on)

let suite =
  ( "isop",
    [
      Alcotest.test_case "known functions" `Quick test_known_functions;
      Alcotest.test_case "tiny arities" `Quick test_arity_zero_and_one;
      Alcotest.test_case "irredundance detector" `Quick test_is_irredundant_detects_redundancy;
      prop_exact_cover;
      prop_implicants;
      prop_irredundant;
      prop_no_bigger_than_qm;
      prop_choose;
    ] )
