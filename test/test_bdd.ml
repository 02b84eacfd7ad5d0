module Bdd = Ee_logic.Bdd
module Tt = Ee_logic.Truthtab

let tt_gen arity =
  QCheck.make
    ~print:(fun t -> Tt.to_string t)
    (QCheck.Gen.map (fun seed -> Tt.random (Ee_util.Prng.create seed) arity) QCheck.Gen.int)

let qtest name ?(count = 200) gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen prop)

let prop_roundtrip =
  qtest "of_truthtab then to_truthtab" (tt_gen 5) (fun f ->
      let m = Bdd.manager () in
      Tt.equal f (Bdd.to_truthtab m (Bdd.of_truthtab m f) ~arity:5))

let prop_ops_agree =
  qtest "logical ops agree with truth tables" (QCheck.pair (tt_gen 4) (tt_gen 4))
    (fun (a, b) ->
      let m = Bdd.manager () in
      let ba = Bdd.of_truthtab m a and bb = Bdd.of_truthtab m b in
      let check mk tt_op =
        Tt.equal (Bdd.to_truthtab m (mk ba bb) ~arity:4) (tt_op a b)
      in
      check (Bdd.logand m) Tt.logand
      && check (Bdd.logor m) Tt.logor
      && check (Bdd.logxor m) Tt.logxor
      && Tt.equal (Bdd.to_truthtab m (Bdd.lognot m ba) ~arity:4) (Tt.lognot a))

let prop_canonical_equality =
  qtest "equal functions share a node" (QCheck.pair (tt_gen 4) (tt_gen 4)) (fun (a, b) ->
      let m = Bdd.manager () in
      let ba = Bdd.of_truthtab m a and bb = Bdd.of_truthtab m b in
      Bdd.equal ba bb = Tt.equal a b)

let prop_sat_count =
  qtest "sat_count = count_ones" (tt_gen 5) (fun f ->
      let m = Bdd.manager () in
      Bdd.sat_count m (Bdd.of_truthtab m f) ~nvars:5 = Tt.count_ones f)

let prop_restrict =
  qtest "restrict agrees with cofactor" (tt_gen 4) (fun f ->
      let m = Bdd.manager () in
      let b = Bdd.of_truthtab m f in
      List.for_all
        (fun v ->
          List.for_all
            (fun value ->
              Tt.equal
                (Bdd.to_truthtab m (Bdd.restrict m b ~var:v ~value) ~arity:4)
                (Tt.restrict f ~var:v ~value))
            [ false; true ])
        [ 0; 1; 2; 3 ])

let prop_support =
  qtest "support agrees" (tt_gen 4) (fun f ->
      let m = Bdd.manager () in
      Bdd.support m (Bdd.of_truthtab m f) = Tt.support f)

let test_ite () =
  let m = Bdd.manager () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 and z = Bdd.var m 2 in
  let f = Bdd.ite m x y z in
  (* if x then y else z, truth table over 3 vars. *)
  let expected = Tt.of_fun 3 (fun v -> if v land 1 = 1 then (v lsr 1) land 1 = 1 else (v lsr 2) land 1 = 1) in
  Alcotest.(check bool) "ite" true (Tt.equal expected (Bdd.to_truthtab m f ~arity:3))

let test_consts () =
  let m = Bdd.manager () in
  Alcotest.(check (option bool)) "zero" (Some false) (Bdd.is_const (Bdd.zero m));
  Alcotest.(check (option bool)) "one" (Some true) (Bdd.is_const (Bdd.one m));
  Alcotest.(check (option bool)) "var" None (Bdd.is_const (Bdd.var m 3))

let test_node_count_shared () =
  let m = Bdd.manager () in
  (* x0 xor x1 xor x2 has the classic 3-level xor structure. *)
  let f =
    Bdd.logxor m (Bdd.var m 0) (Bdd.logxor m (Bdd.var m 1) (Bdd.var m 2))
  in
  Alcotest.(check bool) "reasonable node count" true (Bdd.node_count m f <= 7);
  Alcotest.(check int) "sat half" 4 (Bdd.sat_count m f ~nvars:3)

let test_reduction () =
  let m = Bdd.manager () in
  (* (x and y) or (x and not y) reduces to x. *)
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  let f = Bdd.logor m (Bdd.logand m x y) (Bdd.logand m x (Bdd.lognot m y)) in
  Alcotest.(check bool) "reduces to x" true (Bdd.equal f x)

(* One manager past 2^21 nodes: the projections of 2^21 variables above
   x_0..x_19 come first, so every node and ite result of a < b and a > b
   (a = x_0..x_9, b = x_10..x_19, least significant bit first) has an id
   past 2^21.  The manager's cache keys once packed ids and variables into
   21 bits each and raised [Failure] at 2^21 nodes. *)
let test_past_2_21_nodes () =
  let m = Bdd.manager () in
  for v = 20 to 20 + (1 lsl 21) do
    ignore (Bdd.var m v)
  done;
  (* Where a and b differ at bit i, the comparison is b_i (or a_i) unless a
     higher bit differs too. *)
  let compare_by pick =
    List.fold_left
      (fun acc i ->
        let a = Bdd.var m i and b = Bdd.var m (10 + i) in
        Bdd.ite m (Bdd.logxor m a b) (pick a b) acc)
      (Bdd.zero m) (List.init 10 Fun.id)
  in
  let lt = compare_by (fun _ b -> b) and gt = compare_by (fun a _ -> a) in
  Alcotest.(check int) "a < b" (1024 * 1023 / 2) (Bdd.sat_count m lt ~nvars:20);
  Alcotest.(check int) "a > b" (1024 * 1023 / 2) (Bdd.sat_count m gt ~nvars:20);
  Alcotest.(check int) "a <> b" ((1024 * 1024) - 1024)
    (Bdd.sat_count m (Bdd.logor m lt gt) ~nvars:20);
  Alcotest.(check bool) "a < b and a > b" true (Bdd.equal (Bdd.logand m lt gt) (Bdd.zero m))

let suite =
  ( "bdd",
    [
      Alcotest.test_case "ite" `Quick test_ite;
      Alcotest.test_case "constants" `Quick test_consts;
      Alcotest.test_case "xor sharing" `Quick test_node_count_shared;
      Alcotest.test_case "reduction" `Quick test_reduction;
      prop_roundtrip;
      prop_ops_agree;
      prop_canonical_equality;
      prop_sat_count;
      prop_restrict;
      prop_support;
      Alcotest.test_case "past 2^21 nodes" `Quick test_past_2_21_nodes;
    ] )
