module Cube = Ee_logic.Cube

let cube_gen nvars =
  QCheck.make
    ~print:(fun c -> Cube.to_string ~nvars c)
    QCheck.Gen.(
      map2
        (fun care value -> Cube.make ~care:(care land Ee_util.Bits.mask nvars) ~value)
        (int_bound 255) (int_bound 255))

let qtest name ?(count = 300) gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen prop)

let test_string_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Cube.to_string ~nvars:(String.length s) (Cube.of_string s)))
    [ "11-"; "0-1"; "---"; "1010"; "-"; "00-" ]

let test_of_string_invalid () =
  Alcotest.check_raises "bad char" (Invalid_argument "Cube.of_string: expected '0', '1' or '-'")
    (fun () -> ignore (Cube.of_string "1x0"))

let test_universe () =
  Alcotest.(check int) "covers all" 8 (Cube.num_minterms ~nvars:3 Cube.universe);
  Alcotest.(check int) "no literals" 0 (Cube.num_literals Cube.universe)

let test_minterms () =
  let c = Cube.of_string "1-0" in
  Alcotest.(check (list int)) "minterms of 1-0" [ 4; 6 ] (Cube.minterms ~nvars:3 c);
  Alcotest.(check int) "count" 2 (Cube.num_minterms ~nvars:3 c)

let test_of_minterm () =
  let c = Cube.of_minterm ~nvars:4 11 in
  Alcotest.(check (list int)) "single minterm" [ 11 ] (Cube.minterms ~nvars:4 c);
  Alcotest.(check int) "literals" 4 (Cube.num_literals c)

let prop_disjoint_semantics =
  qtest "disjoint = empty intersection of minterms" (QCheck.pair (cube_gen 4) (cube_gen 4))
    (fun (a, b) ->
      let ma = Cube.minterms ~nvars:4 a in
      Cube.disjoint a b = not (List.exists (fun m -> Cube.contains_minterm a m) (Cube.minterms ~nvars:4 b))
      && Cube.disjoint a b = not (List.exists (fun m -> Cube.contains_minterm b m) ma))

let prop_intersect_semantics =
  qtest "intersect minterms = set intersection" (QCheck.pair (cube_gen 4) (cube_gen 4))
    (fun (a, b) ->
      let inter = List.filter (Cube.contains_minterm b) (Cube.minterms ~nvars:4 a) in
      match Cube.intersect a b with
      | None -> inter = []
      | Some c -> Cube.minterms ~nvars:4 c = inter)

let test_merge () =
  let a = Cube.of_string "110" and b = Cube.of_string "100" in
  (match Cube.merge a b with
  | Some m -> Alcotest.(check string) "merged" "1-0" (Cube.to_string ~nvars:3 m)
  | None -> Alcotest.fail "expected merge");
  Alcotest.(check bool) "different care" true (Cube.merge (Cube.of_string "1-0") (Cube.of_string "10-") = None);
  Alcotest.(check bool) "distance 2" true (Cube.merge (Cube.of_string "110") (Cube.of_string "101") = None);
  Alcotest.(check bool) "identical" true (Cube.merge a a = None)

let prop_merge_union =
  qtest "merge covers exactly the union" (QCheck.pair (cube_gen 4) (cube_gen 4))
    (fun (a, b) ->
      match Cube.merge a b with
      | None -> true
      | Some m ->
          let union =
            List.sort_uniq compare (Cube.minterms ~nvars:4 a @ Cube.minterms ~nvars:4 b)
          in
          Cube.minterms ~nvars:4 m = union)

let test_supported_on () =
  let c = Cube.of_string "1-0" in
  (* Literals at variables 2 and 0. *)
  Alcotest.(check bool) "subset {0,2}" true (Cube.supported_on c ~subset:0b101);
  Alcotest.(check bool) "subset {0,1,2}" true (Cube.supported_on c ~subset:0b111);
  Alcotest.(check bool) "subset {2}" false (Cube.supported_on c ~subset:0b100);
  Alcotest.(check bool) "universe on empty" true (Cube.supported_on Cube.universe ~subset:0)

let suite =
  ( "cube",
    [
      Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
      Alcotest.test_case "of_string invalid" `Quick test_of_string_invalid;
      Alcotest.test_case "universe" `Quick test_universe;
      Alcotest.test_case "minterms" `Quick test_minterms;
      Alcotest.test_case "of_minterm" `Quick test_of_minterm;
      Alcotest.test_case "merge" `Quick test_merge;
      Alcotest.test_case "supported_on" `Quick test_supported_on;
      prop_disjoint_semantics;
      prop_intersect_semantics;
      prop_merge_union;
    ] )
