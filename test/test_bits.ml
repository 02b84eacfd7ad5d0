module Bits = Ee_util.Bits

let naive_popcount x =
  let c = ref 0 in
  for i = 0 to 61 do
    if (x lsr i) land 1 = 1 then incr c
  done;
  !c

let test_popcount () =
  List.iter
    (fun x -> Alcotest.(check int) (string_of_int x) (naive_popcount x) (Bits.popcount x))
    [ 0; 1; 2; 3; 0xFF; 0xF0F0; 0xFFFF; 123456789; max_int ]

let test_popcount64 () =
  Alcotest.(check int) "zero" 0 (Bits.popcount64 0L);
  Alcotest.(check int) "all ones" 64 (Bits.popcount64 Int64.minus_one);
  Alcotest.(check int) "one bit" 1 (Bits.popcount64 Int64.min_int)

let test_get_set () =
  let w = Bits.set 0 5 true in
  Alcotest.(check bool) "set then get" true (Bits.get w 5);
  Alcotest.(check bool) "other bits clear" false (Bits.get w 4);
  Alcotest.(check int) "clear restores" 0 (Bits.set w 5 false)

let test_mask () =
  Alcotest.(check int) "mask 0" 0 (Bits.mask 0);
  Alcotest.(check int) "mask 4" 15 (Bits.mask 4);
  Alcotest.(check int) "mask 10" 1023 (Bits.mask 10)

let test_iter_fold_indices () =
  let w = 0b101101 in
  Alcotest.(check (list int)) "indices" [ 0; 2; 3; 5 ] (Bits.indices w);
  Alcotest.(check int) "fold sum" 10 (Bits.fold_bits w (fun acc i -> acc + i) 0);
  let collected = ref [] in
  Bits.iter_bits w (fun i -> collected := i :: !collected);
  Alcotest.(check (list int)) "iter ascending" [ 0; 2; 3; 5 ] (List.rev !collected)

let binomial n k =
  let rec fact i = if i <= 1 then 1 else i * fact (i - 1) in
  fact n / (fact k * fact (n - k))

let test_subsets_of_size () =
  for n = 1 to 5 do
    for k = 0 to n do
      let subs = Bits.subsets_of_size n k in
      Alcotest.(check int)
        (Printf.sprintf "count C(%d,%d)" n k)
        (binomial n k) (List.length subs);
      List.iter
        (fun m -> Alcotest.(check int) "popcount" k (Bits.popcount m))
        subs
    done
  done

let test_all_nonempty_proper_subsets () =
  (* The paper's "all 14 possible support sets of 3 or fewer variables"
     for a 4-input LUT. *)
  let subs = Bits.all_nonempty_proper_subsets 0xF in
  Alcotest.(check int) "14 subsets of a LUT4" 14 (List.length subs);
  List.iter
    (fun m ->
      Alcotest.(check bool) "nonempty" true (m <> 0);
      Alcotest.(check bool) "proper" true (m <> 0xF);
      Alcotest.(check bool) "within" true (m land lnot 0xF = 0))
    subs;
  (* Sparse mask: subsets of {0, 2}. *)
  Alcotest.(check (list int)) "sparse mask" [ 1; 4 ] (Bits.all_nonempty_proper_subsets 0b101);
  Alcotest.(check (list int)) "empty mask" [] (Bits.all_nonempty_proper_subsets 0)

let test_subset_edge_cases () =
  (* Degenerate shapes: an empty universe,
     cube budgets past the universe size, and the full mask. *)
  Alcotest.(check (list int)) "n=0 k=0" [ 0 ] (Bits.subsets_of_size 0 0);
  Alcotest.(check (list int)) "n=0 k=1" [] (Bits.subsets_of_size 0 1);
  Alcotest.(check (list int)) "k>n" [] (Bits.subsets_of_size 2 3);
  Alcotest.(check (list int)) "k=n full mask" [ 0b1111 ] (Bits.subsets_of_size 4 4);
  Alcotest.(check int) "LUT6 proper subsets" 62
    (List.length (Bits.all_nonempty_proper_subsets (Bits.mask 6)));
  Alcotest.(check (list int)) "singleton mask" []
    (Bits.all_nonempty_proper_subsets 0b1000)

let test_log2_ceil () =
  List.iter
    (fun (n, expect) -> Alcotest.(check int) (string_of_int n) expect (Bits.log2_ceil n))
    [ (1, 0); (2, 1); (3, 2); (4, 2); (5, 3); (8, 3); (9, 4); (1024, 10) ]

let suite =
  ( "bits",
    [
      Alcotest.test_case "popcount" `Quick test_popcount;
      Alcotest.test_case "popcount64" `Quick test_popcount64;
      Alcotest.test_case "get/set" `Quick test_get_set;
      Alcotest.test_case "mask" `Quick test_mask;
      Alcotest.test_case "iter/fold/indices" `Quick test_iter_fold_indices;
      Alcotest.test_case "subsets_of_size" `Quick test_subsets_of_size;
      Alcotest.test_case "all_nonempty_proper_subsets" `Quick test_all_nonempty_proper_subsets;
      Alcotest.test_case "subset edge cases" `Quick test_subset_edge_cases;
      Alcotest.test_case "log2_ceil" `Quick test_log2_ceil;
    ] )
