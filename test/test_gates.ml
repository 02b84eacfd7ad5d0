module Gates = Ee_rtl.Gates

let fresh () =
  let b = Gates.builder () in
  let x = Gates.input b "x" 0 in
  let y = Gates.input b "y" 0 in
  (b, x, y)

let test_constant_folding_and () =
  let b, x, _ = fresh () in
  let zero = Gates.const b false and one = Gates.const b true in
  Alcotest.(check int) "x & 0 = 0" zero (Gates.gand b x zero);
  Alcotest.(check int) "x & 1 = x" x (Gates.gand b x one);
  Alcotest.(check int) "x & x = x" x (Gates.gand b x x);
  Alcotest.(check int) "x & ~x = 0" zero (Gates.gand b x (Gates.gnot b x))

let test_constant_folding_or () =
  let b, x, _ = fresh () in
  let zero = Gates.const b false and one = Gates.const b true in
  Alcotest.(check int) "x | 1 = 1" one (Gates.gor b x one);
  Alcotest.(check int) "x | 0 = x" x (Gates.gor b x zero);
  Alcotest.(check int) "x | x = x" x (Gates.gor b x x);
  Alcotest.(check int) "x | ~x = 1" one (Gates.gor b x (Gates.gnot b x))

let test_constant_folding_xor () =
  let b, x, _ = fresh () in
  let zero = Gates.const b false and one = Gates.const b true in
  Alcotest.(check int) "x ^ x = 0" zero (Gates.gxor b x x);
  Alcotest.(check int) "x ^ 0 = x" x (Gates.gxor b x zero);
  Alcotest.(check int) "x ^ 1 = ~x" (Gates.gnot b x) (Gates.gxor b x one);
  Alcotest.(check int) "x ^ ~x = 1" one (Gates.gxor b x (Gates.gnot b x))

let test_double_negation () =
  let b, x, _ = fresh () in
  Alcotest.(check int) "~~x = x" x (Gates.gnot b (Gates.gnot b x))

let test_mux_folding () =
  let b, x, y = fresh () in
  let zero = Gates.const b false and one = Gates.const b true in
  let s = Gates.input b "s" 0 in
  Alcotest.(check int) "mux same branches" x (Gates.gmux b ~sel:s ~f0:x ~f1:x);
  Alcotest.(check int) "mux const sel 0" x (Gates.gmux b ~sel:zero ~f0:x ~f1:y);
  Alcotest.(check int) "mux const sel 1" y (Gates.gmux b ~sel:one ~f0:x ~f1:y);
  Alcotest.(check int) "mux 0/1 = sel" s (Gates.gmux b ~sel:s ~f0:zero ~f1:one);
  Alcotest.(check int) "mux 1/0 = ~sel" (Gates.gnot b s) (Gates.gmux b ~sel:s ~f0:one ~f1:zero);
  Alcotest.(check int) "mux(s,0,y) = s&y" (Gates.gand b s y) (Gates.gmux b ~sel:s ~f0:zero ~f1:y)

let test_hash_consing () =
  let b, x, y = fresh () in
  Alcotest.(check int) "same and shared" (Gates.gand b x y) (Gates.gand b x y);
  Alcotest.(check int) "commutative sharing" (Gates.gand b x y) (Gates.gand b y x);
  Alcotest.(check int) "xor commutative" (Gates.gxor b x y) (Gates.gxor b y x)

let test_eval () =
  let b, x, y = fresh () in
  let f = Gates.gor b (Gates.gand b x y) (Gates.gnot b x) in
  Gates.set_output b "f" [| f |];
  Gates.declare_input b "x" 1;
  Gates.declare_input b "y" 1;
  let c = Gates.finalize b in
  let run vx vy =
    let values =
      Gates.eval c
        ~env:(fun (n, _) -> if n = "x" then vx else vy)
        ~regs:(fun _ -> false)
    in
    values.(f)
  in
  Alcotest.(check bool) "11" true (run true true);
  Alcotest.(check bool) "10" false (run true false);
  Alcotest.(check bool) "01" true (run false true);
  Alcotest.(check bool) "00" true (run false false)

let test_elaborate_shapes () =
  (* The carry chain of an adder must surface as majority gates on raw
     operand bits (the EE-friendly lowering). *)
  let d =
    {
      Ee_rtl.Rtl.name = "a";
      inputs = [ ("a", 4); ("b", 4) ];
      regs = [];
      nexts = [];
      outputs =
        [ ("s", Ee_rtl.Rtl.Add (Ee_rtl.Rtl.Input "a", Ee_rtl.Rtl.Input "b")) ];
    }
  in
  let c = Ee_rtl.Elaborate.run d in
  Alcotest.(check bool) "nontrivial gate count" true (Gates.gate_count c > 10);
  (* Elaborating twice gives identical circuits (pure). *)
  let c2 = Ee_rtl.Elaborate.run d in
  Alcotest.(check int) "deterministic" (Gates.gate_count c) (Gates.gate_count c2)

let test_structural_sharing_in_elaboration () =
  (* The same sub-expression elaborated twice maps to the same gates. *)
  let sum = Ee_rtl.Rtl.Add (Ee_rtl.Rtl.Input "a", Ee_rtl.Rtl.Input "b") in
  let d1 =
    {
      Ee_rtl.Rtl.name = "s1";
      inputs = [ ("a", 6); ("b", 6) ];
      regs = [];
      nexts = [];
      outputs = [ ("x", sum); ("y", sum) ];
    }
  in
  let d2 = { d1 with outputs = [ ("x", sum) ] } in
  Alcotest.(check int) "no duplicate logic"
    (Gates.gate_count (Ee_rtl.Elaborate.run d2))
    (Gates.gate_count (Ee_rtl.Elaborate.run d1))

(* The bit-parallel cone evaluator against per-minterm evaluation with
   [Gates.eval]: random gates over [k] inputs (k = 1 .. 8), the last one the
   root, its leaves the inputs in declaration order. *)
let test_cone_function () =
  let rng = Ee_util.Prng.create 11 in
  for trial = 0 to 199 do
    let k = 1 + (trial mod 8) in
    let b = Gates.builder () in
    let inputs = Array.init k (fun j -> Gates.input b "i" j) in
    let pool = ref (Array.to_list inputs) in
    let pick () = List.nth !pool (Ee_util.Prng.int rng (List.length !pool)) in
    let root = ref inputs.(0) in
    for _ = 1 to 12 do
      let g =
        match Ee_util.Prng.int rng 6 with
        | 0 -> Gates.gnot b (pick ())
        | 1 -> Gates.gand b (pick ()) (pick ())
        | 2 -> Gates.gor b (pick ()) (pick ())
        | 3 -> Gates.gxor b (pick ()) (pick ())
        | 4 -> Gates.gmux b ~sel:(pick ()) ~f0:(pick ()) ~f1:(Gates.const b true)
        | _ -> Gates.gmux b ~sel:(pick ()) ~f0:(pick ()) ~f1:(pick ())
      in
      pool := g :: !pool;
      root := g
    done;
    Gates.declare_input b "i" k;
    Gates.set_output b "o" [| !root |];
    let c = Gates.finalize b in
    let leaves = Array.to_list inputs in
    let expected =
      Ee_logic.Truthtab.of_fun k (fun m ->
          (Gates.eval c ~env:(fun (_, j) -> (m lsr j) land 1 = 1) ~regs:(fun _ -> false)).(!root))
    in
    let got = Gates.cone_function c.Gates.gates ~root:!root ~leaves in
    if not (Ee_logic.Truthtab.equal expected got) then
      Alcotest.failf "trial %d (%d leaves): cone %s, per-minterm %s" trial k
        (Ee_logic.Truthtab.to_string got) (Ee_logic.Truthtab.to_string expected);
    if k <= 4 then
      Alcotest.(check int)
        (Printf.sprintf "trial %d: LUT4 padding" trial)
        (Ee_logic.Lut4.to_int (Ee_logic.Lut4.of_truthtab expected))
        (Ee_logic.Lut4.to_int (Gates.cone_lut4 c.Gates.gates ~root:!root ~leaves))
  done

let suite =
  ( "gates",
    [
      Alcotest.test_case "and folding" `Quick test_constant_folding_and;
      Alcotest.test_case "or folding" `Quick test_constant_folding_or;
      Alcotest.test_case "xor folding" `Quick test_constant_folding_xor;
      Alcotest.test_case "double negation" `Quick test_double_negation;
      Alcotest.test_case "mux folding" `Quick test_mux_folding;
      Alcotest.test_case "hash consing" `Quick test_hash_consing;
      Alcotest.test_case "eval" `Quick test_eval;
      Alcotest.test_case "elaborate shapes" `Quick test_elaborate_shapes;
      Alcotest.test_case "sharing in elaboration" `Quick test_structural_sharing_in_elaboration;
      Alcotest.test_case "cone function = per-minterm eval" `Quick test_cone_function;
    ] )
