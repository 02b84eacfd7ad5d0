open Ee_rtl

let zext ~from w e = if w = from then e else Rtl.Concat (Rtl.zero (w - from), e)

let shl w e n =
  if n = 0 then e
  else if n >= w then Rtl.zero w
  else Rtl.Concat (Rtl.Slice (e, w - 1 - n, 0), Rtl.zero n)

let shr w e n =
  if n = 0 then e
  else if n >= w then Rtl.zero w
  else Rtl.Concat (Rtl.zero n, Rtl.Slice (e, w - 1, n))

let rotl w e n =
  let n = n mod w in
  if n = 0 then e else Rtl.Concat (Rtl.Slice (e, w - 1 - n, 0), Rtl.Slice (e, w - 1, w - n))

let eq_const w e v = Rtl.Eq (e, Rtl.Const (w, v))

let inc w e = Rtl.Add (e, Rtl.Const (w, 1))

let popcount_width w = Ee_util.Bits.log2_ceil (w + 1)

let popcount w e =
  let pw = popcount_width w in
  let bits = List.init w (fun i -> zext ~from:1 pw (Rtl.bit e i)) in
  (* Balanced addition tree. *)
  let rec reduce = function
    | [] -> Rtl.zero pw
    | [ x ] -> x
    | xs ->
        let rec pair = function
          | a :: b :: rest -> Rtl.Add (a, b) :: pair rest
          | [ a ] -> [ a ]
          | [] -> []
        in
        reduce (pair xs)
  in
  reduce bits

let min2 a b = Rtl.Mux (Rtl.Lt (a, b), b, a)

let max2 a b = Rtl.Mux (Rtl.Lt (a, b), a, b)

let abs_diff a b = Rtl.Mux (Rtl.Lt (a, b), Rtl.Sub (a, b), Rtl.Sub (b, a))

let lfsr_next w ~taps e =
  let top = Rtl.bit e (w - 1) in
  let shifted = shl w e 1 in
  let tap_mask = List.fold_left (fun acc t -> acc lor (1 lsl t)) 0 taps in
  Rtl.Xor (shifted, Rtl.Mux (top, Rtl.zero w, Rtl.Const (w, tap_mask land ((1 lsl w) - 1))))

let rom w addr contents =
  let cases = Array.to_list (Array.map (fun v -> Rtl.Const (w, v land ((1 lsl w) - 1))) contents) in
  Rtl.select addr w cases

type alu_op = Alu_add | Alu_sub | Alu_and | Alu_or | Alu_xor | Alu_shl1 | Alu_shr1 | Alu_not

let alu w ~op a b =
  Rtl.select op w
    [
      Rtl.Add (a, b);
      Rtl.Sub (a, b);
      Rtl.And (a, b);
      Rtl.Or (a, b);
      Rtl.Xor (a, b);
      shl w a 1;
      shr w a 1;
      Rtl.Not a;
    ]

let alu_flags w result =
  (Rtl.Eq (result, Rtl.zero w), Rtl.bit result (w - 1))

let barrel_shl w e amount =
  let stages = Ee_util.Bits.log2_ceil w in
  let rec go e k =
    if k >= stages then e
    else
      let shifted = shl w e (1 lsl k) in
      go (Rtl.Mux (Rtl.bit amount k, e, shifted)) (k + 1)
  in
  go e 0
