let test_deterministic () =
  let a = Ee_util.Prng.create 42 and b = Ee_util.Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Ee_util.Prng.int64 a) (Ee_util.Prng.int64 b)
  done

let test_seed_matters () =
  let a = Ee_util.Prng.create 1 and b = Ee_util.Prng.create 2 in
  Alcotest.(check bool) "different streams" false
    (Ee_util.Prng.int64 a = Ee_util.Prng.int64 b)

let test_int_bounds () =
  let rng = Ee_util.Prng.create 7 in
  List.iter
    (fun bound ->
      for _ = 1 to 500 do
        let v = Ee_util.Prng.int rng bound in
        Alcotest.(check bool) "in range" true (v >= 0 && v < bound)
      done)
    [ 1; 2; 3; 7; 10; 100; 1000 ]

let test_int_covers_range () =
  let rng = Ee_util.Prng.create 11 in
  let seen = Array.make 5 false in
  for _ = 1 to 1000 do
    seen.(Ee_util.Prng.int rng 5) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_bits_range () =
  let rng = Ee_util.Prng.create 3 in
  for n = 0 to 30 do
    let v = Ee_util.Prng.bits rng n in
    Alcotest.(check bool) "bits in range" true (v >= 0 && (n = 30 || v < 1 lsl n))
  done

let test_copy_independent () =
  let a = Ee_util.Prng.create 5 in
  ignore (Ee_util.Prng.int64 a);
  let b = Ee_util.Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Ee_util.Prng.int64 a)
    (Ee_util.Prng.int64 b)

let test_split_diverges () =
  let a = Ee_util.Prng.create 5 in
  let child = Ee_util.Prng.split a in
  Alcotest.(check bool) "child differs from parent" false
    (Ee_util.Prng.int64 a = Ee_util.Prng.int64 child)

let test_float_range () =
  let rng = Ee_util.Prng.create 9 in
  for _ = 1 to 1000 do
    let v = Ee_util.Prng.float rng 2.5 in
    Alcotest.(check bool) "float in [0, 2.5)" true (v >= 0. && v < 2.5)
  done

let test_bool_vector_length () =
  let rng = Ee_util.Prng.create 1 in
  Alcotest.(check int) "length" 17 (Array.length (Ee_util.Prng.bool_vector rng 17))

(* The unboxed [bool_vector] draws the stream of successive [bool]s and
   leaves the generator where they leave it. *)
let test_bool_vector_stream () =
  List.iter
    (fun seed ->
      let a = Ee_util.Prng.create seed and b = Ee_util.Prng.create seed in
      for n = 0 to 130 do
        let v = Ee_util.Prng.bool_vector a n in
        let v' = Array.init n (fun _ -> Ee_util.Prng.bool b) in
        Alcotest.(check (array bool)) (Printf.sprintf "seed %d, width %d" seed n) v' v;
        Alcotest.(check int64) "state after" (Ee_util.Prng.int64 b) (Ee_util.Prng.int64 a)
      done)
    [ 0; 1; 2002; -7; max_int ]

let test_shuffle_permutation () =
  let rng = Ee_util.Prng.create 13 in
  let a = Array.init 20 Fun.id in
  Ee_util.Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 Fun.id) sorted

let test_bool_balanced () =
  let rng = Ee_util.Prng.create 21 in
  let trues = ref 0 in
  for _ = 1 to 10000 do
    if Ee_util.Prng.bool rng then incr trues
  done;
  Alcotest.(check bool) "roughly balanced" true (!trues > 4500 && !trues < 5500)

let suite =
  ( "prng",
    [
      Alcotest.test_case "deterministic" `Quick test_deterministic;
      Alcotest.test_case "seed matters" `Quick test_seed_matters;
      Alcotest.test_case "int bounds" `Quick test_int_bounds;
      Alcotest.test_case "int covers range" `Quick test_int_covers_range;
      Alcotest.test_case "bits range" `Quick test_bits_range;
      Alcotest.test_case "copy independent" `Quick test_copy_independent;
      Alcotest.test_case "split diverges" `Quick test_split_diverges;
      Alcotest.test_case "float range" `Quick test_float_range;
      Alcotest.test_case "bool_vector length" `Quick test_bool_vector_length;
      Alcotest.test_case "bool_vector stream" `Quick test_bool_vector_stream;
      Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
      Alcotest.test_case "bool balanced" `Quick test_bool_balanced;
    ] )
