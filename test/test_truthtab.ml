module Tt = Ee_logic.Truthtab

let tt_gen arity =
  QCheck.make
    ~print:(fun t -> Tt.to_string t)
    (QCheck.Gen.map
       (fun seed -> Tt.random (Ee_util.Prng.create seed) arity)
       QCheck.Gen.int)

let qtest name ?(count = 200) gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen prop)

let test_string_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Tt.to_string (Tt.of_string s)))
    [ "01"; "1110"; "10010110"; "1110100011101000" ]

let test_of_string_invalid () =
  Alcotest.check_raises "bad length"
    (Invalid_argument "Truthtab.of_string: length must be a power of two") (fun () ->
      ignore (Tt.of_string "011"));
  Alcotest.check_raises "bad char"
    (Invalid_argument "Truthtab.of_string: expected only '0'/'1'") (fun () ->
      ignore (Tt.of_string "01x1"))

let test_var () =
  let v1 = Tt.var 3 1 in
  for m = 0 to 7 do
    Alcotest.(check bool) "projection" ((m lsr 1) land 1 = 1) (Tt.eval v1 m)
  done

let test_const () =
  Alcotest.(check (option bool)) "const true" (Some true) (Tt.is_const (Tt.const 5 true));
  Alcotest.(check (option bool)) "const false" (Some false) (Tt.is_const (Tt.create 5));
  Alcotest.(check (option bool)) "not const" None (Tt.is_const (Tt.var 2 0))

let test_minterms () =
  let t = Tt.of_minterms 3 [ 1; 4; 6 ] in
  Alcotest.(check (list int)) "roundtrip" [ 1; 4; 6 ] (Tt.minterms t);
  Alcotest.(check int) "count" 3 (Tt.count_ones t)

let test_eval_vector () =
  let f = Tt.of_string "11101000" in
  (* majority over 3 vars *)
  Alcotest.(check bool) "110" true (Tt.eval_vector f [| false; true; true |]);
  Alcotest.(check bool) "100" false (Tt.eval_vector f [| false; false; true |])

let prop_demorgan =
  qtest "De Morgan: not(a and b) = not a or not b"
    (QCheck.pair (tt_gen 5) (tt_gen 5))
    (fun (a, b) -> Tt.equal (Tt.lognot (Tt.logand a b)) (Tt.logor (Tt.lognot a) (Tt.lognot b)))

let prop_xor_self =
  qtest "a xor a = 0" (tt_gen 6) (fun a -> Tt.is_const (Tt.logxor a a) = Some false)

let prop_double_not =
  qtest "not (not a) = a" (tt_gen 6) (fun a -> Tt.equal a (Tt.lognot (Tt.lognot a)))

let prop_shannon =
  qtest "Shannon expansion" (tt_gen 4) (fun f ->
      (* f = (x and f|x=1) or (not x and f|x=0) for every variable. *)
      List.for_all
        (fun v ->
          let x = Tt.var 4 v in
          let f0, f1 = Tt.cofactor_pair f ~var:v in
          Tt.equal f (Tt.logor (Tt.logand x f1) (Tt.logand (Tt.lognot x) f0)))
        [ 0; 1; 2; 3 ])

let prop_support_restrict =
  qtest "restricting a support variable may change f; a non-support one never does"
    (tt_gen 4) (fun f ->
      List.for_all
        (fun v ->
          let changes =
            not (Tt.equal (Tt.restrict f ~var:v ~value:false) (Tt.restrict f ~var:v ~value:true))
          in
          changes = Tt.depends_on f v)
        [ 0; 1; 2; 3 ])

let prop_quantifiers =
  qtest "exists is or of cofactors; forall is and" (tt_gen 4) (fun f ->
      List.for_all
        (fun v ->
          let f0, f1 = Tt.cofactor_pair f ~var:v in
          Tt.equal (Tt.exists f ~mask:(1 lsl v)) (Tt.logor f0 f1)
          && Tt.equal (Tt.forall f ~mask:(1 lsl v)) (Tt.logand f0 f1))
        [ 0; 1; 2; 3 ])

(* The word-parallel cofactor paths (in-word shifts below variable 6, word
   pairs from 6 up) against minterm-by-minterm definitions, at arities
   that cover a partial word, a full word and several words. *)
let prop_wordwise_cofactors =
  qtest "word-parallel cofactors = scan" ~count:300
    QCheck.(triple (int_range 1 9) (int_bound 1_000_000) (int_bound 511))
    (fun (n, seed, mask) ->
      let f = Tt.random (Ee_util.Prng.create seed) n in
      let mask = mask land ((1 lsl n) - 1) in
      let rec submasks d acc =
        if d = 0 then 0 :: acc else submasks ((d - 1) land mask) (d :: acc)
      in
      let completions m = List.map (fun d -> m land lnot mask lor d) (submasks mask []) in
      let by_scan all =
        Tt.of_fun n (fun m ->
            let vals = List.map (Tt.eval f) (completions m) in
            if all then List.for_all Fun.id vals else List.exists Fun.id vals)
      in
      Tt.equal (Tt.forall f ~mask) (by_scan true)
      && Tt.equal (Tt.exists f ~mask) (by_scan false)
      && List.for_all
           (fun v ->
             List.for_all
               (fun value ->
                 let bit = if value then 1 lsl v else 0 in
                 Tt.equal (Tt.restrict f ~var:v ~value)
                   (Tt.of_fun n (fun m -> Tt.eval f (m land lnot (1 lsl v) lor bit))))
               [ false; true ])
           (List.init n Fun.id))

let prop_constant_under_naive =
  qtest "constant_under agrees with direct scan"
    (QCheck.pair (tt_gen 3) (QCheck.int_range 0 7))
    (fun (f, subset) ->
      List.for_all
        (fun assignment ->
          let naive =
            let vals =
              List.filter_map
                (fun m ->
                  if m land subset = assignment land subset then Some (Tt.eval f m) else None)
                (List.init 8 Fun.id)
            in
            match vals with
            | [] -> None
            | v :: rest -> if List.for_all (( = ) v) rest then Some v else None
          in
          Tt.constant_under f ~subset ~assignment = naive)
        (List.init 8 Fun.id))

let test_permute () =
  (* Swapping variables 0 and 1 of the projection onto 0 gives projection
     onto 1. *)
  let p = Tt.permute (Tt.var 3 0) [| 1; 0; 2 |] in
  Alcotest.(check bool) "swap projection" true (Tt.equal p (Tt.var 3 1))

let prop_permute_involution =
  qtest "swap twice is identity" (tt_gen 4) (fun f ->
      let sw = [| 1; 0; 3; 2 |] in
      Tt.equal f (Tt.permute (Tt.permute f sw) sw))

let test_count_ones_complement () =
  let f = Tt.of_string "10010110" in
  Alcotest.(check int) "ones + zeros = size" 8
    (Tt.count_ones f + Tt.count_ones (Tt.lognot f))

let test_large_arity () =
  (* Exercise the multi-word representation (arity > 6). *)
  let f = Tt.var 8 7 in
  Alcotest.(check int) "half the minterms" 128 (Tt.count_ones f);
  Alcotest.(check int) "support" (1 lsl 7) (Tt.support f);
  let g = Tt.logand f (Tt.var 8 0) in
  Alcotest.(check int) "and count" 64 (Tt.count_ones g)

let suite =
  ( "truthtab",
    [
      Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
      Alcotest.test_case "of_string invalid" `Quick test_of_string_invalid;
      Alcotest.test_case "var" `Quick test_var;
      Alcotest.test_case "const" `Quick test_const;
      Alcotest.test_case "minterms" `Quick test_minterms;
      Alcotest.test_case "eval_vector" `Quick test_eval_vector;
      Alcotest.test_case "permute" `Quick test_permute;
      Alcotest.test_case "count ones complement" `Quick test_count_ones_complement;
      Alcotest.test_case "large arity" `Quick test_large_arity;
      prop_demorgan;
      prop_xor_self;
      prop_double_not;
      prop_shannon;
      prop_support_restrict;
      prop_quantifiers;
      prop_wordwise_cofactors;
      prop_constant_under_naive;
      prop_permute_involution;
    ] )
