type t = { arity : int; words : int64 array }

let max_arity = 16

let size t = 1 lsl t.arity

let nwords arity = if arity <= 6 then 1 else 1 lsl (arity - 6)

(* Invariant: when arity < 6, only the low 2^arity bits of words.(0) may be
   set.  Every constructor masks accordingly so that structural equality on
   the words array is function equality. *)
let tail_mask arity =
  if arity >= 6 then Int64.minus_one
  else Int64.sub (Int64.shift_left 1L (1 lsl arity)) 1L

let check_arity n =
  if n < 0 || n > max_arity then invalid_arg "Truthtab: arity out of range"

let arity t = t.arity

let create n =
  check_arity n;
  { arity = n; words = Array.make (nwords n) 0L }

let const n b =
  check_arity n;
  let fill = if b then tail_mask n else 0L in
  { arity = n; words = Array.make (nwords n) fill }

let get_bit words m = Int64.logand (Int64.shift_right_logical words.(m lsr 6) (m land 63)) 1L

let set_bit words m =
  words.(m lsr 6) <- Int64.logor words.(m lsr 6) (Int64.shift_left 1L (m land 63))

let of_fun n f =
  check_arity n;
  let words = Array.make (nwords n) 0L in
  for m = 0 to (1 lsl n) - 1 do
    if f m then set_bit words m
  done;
  { arity = n; words }

let var n i =
  if i < 0 || i >= n then invalid_arg "Truthtab.var: index out of range";
  of_fun n (fun m -> (m lsr i) land 1 = 1)

let of_minterms n ms =
  check_arity n;
  let words = Array.make (nwords n) 0L in
  List.iter
    (fun m ->
      if m < 0 || m >= 1 lsl n then invalid_arg "Truthtab.of_minterms: bad minterm";
      set_bit words m)
    ms;
  { arity = n; words }

let eval t m =
  assert (m >= 0 && m < size t);
  Int64.equal (get_bit t.words m) 1L

let eval_vector t v =
  let m = ref 0 in
  for i = 0 to t.arity - 1 do
    if v.(i) then m := !m lor (1 lsl i)
  done;
  eval t !m

let of_string s =
  let len = String.length s in
  if len = 0 || len land (len - 1) <> 0 then
    invalid_arg "Truthtab.of_string: length must be a power of two";
  let n = Ee_util.Bits.log2_ceil len in
  check_arity n;
  of_fun n (fun m ->
      match s.[len - 1 - m] with
      | '1' -> true
      | '0' -> false
      | _ -> invalid_arg "Truthtab.of_string: expected only '0'/'1'")

let to_string t =
  String.init (size t) (fun i -> if eval t (size t - 1 - i) then '1' else '0')

let equal a b = a.arity = b.arity && Array.for_all2 Int64.equal a.words b.words

let compare a b =
  let c = Stdlib.compare a.arity b.arity in
  if c <> 0 then c else Stdlib.compare a.words b.words

let hash t = Hashtbl.hash (t.arity, t.words)

let map2 op a b =
  if a.arity <> b.arity then invalid_arg "Truthtab: arity mismatch";
  { arity = a.arity; words = Array.map2 op a.words b.words }

let lognot a =
  let m = tail_mask a.arity in
  { arity = a.arity; words = Array.map (fun w -> Int64.logand (Int64.lognot w) m) a.words }

let logand a b = map2 Int64.logand a b

let logor a b = map2 Int64.logor a b

let logxor a b = map2 Int64.logxor a b

let count_ones t = Array.fold_left (fun acc w -> acc + Ee_util.Bits.popcount64 w) 0 t.words

let minterms t =
  let out = ref [] in
  for m = size t - 1 downto 0 do
    if eval t m then out := m :: !out
  done;
  !out

let is_const t =
  if equal t (const t.arity false) then Some false
  else if equal t (const t.arity true) then Some true
  else None

(* Word-parallel cofactors.  For a variable [v < 6] both cofactors live in
   every word, interleaved in runs of [2^v] bits: [low_half.(v)] selects the
   runs where [v = 0], and shifting right by [2^v] brings the [v = 1] runs
   onto them.  For [v >= 6] the cofactors are whole words [2^(v-6)] apart.
   [combine op words v] replaces both cofactors of [v] by [op] of the two,
   in place, so the result no longer depends on [v].  Results stay within
   the low [2^arity] bits, which keeps the tail-mask invariant. *)
type pair_op = Low | High | Both | Either

let low_half =
  [|
    0x5555555555555555L; 0x3333333333333333L; 0x0F0F0F0F0F0F0F0FL;
    0x00FF00FF00FF00FFL; 0x0000FFFF0000FFFFL; 0x00000000FFFFFFFFL;
  |]

let pair op lo hi =
  match op with
  | Low -> lo
  | High -> hi
  | Both -> Int64.logand lo hi
  | Either -> Int64.logor lo hi

let combine op words v =
  if v < 6 then begin
    let s = 1 lsl v and m = low_half.(v) in
    for i = 0 to Array.length words - 1 do
      let w = words.(i) in
      let r = pair op (Int64.logand w m) (Int64.logand (Int64.shift_right_logical w s) m) in
      words.(i) <- Int64.logor r (Int64.shift_left r s)
    done
  end
  else begin
    let stride = 1 lsl (v - 6) in
    for i = 0 to Array.length words - 1 do
      if i land stride = 0 then begin
        let r = pair op words.(i) words.(i + stride) in
        words.(i) <- r;
        words.(i + stride) <- r
      end
    done
  end

let restrict t ~var ~value =
  if var < 0 || var >= t.arity then invalid_arg "Truthtab.restrict: bad variable";
  let words = Array.copy t.words in
  combine (if value then High else Low) words var;
  { t with words }

let depends_on t i =
  not (equal (restrict t ~var:i ~value:false) (restrict t ~var:i ~value:true))

let support t =
  let s = ref 0 in
  for i = 0 to t.arity - 1 do
    if depends_on t i then s := !s lor (1 lsl i)
  done;
  !s

let constant_under t ~subset ~assignment =
  (* Scan the sub-space selected by [subset]/[assignment] and report whether
     the function is constant over it. *)
  let first = ref None in
  let constant = ref true in
  let n = size t in
  (try
     for m = 0 to n - 1 do
       if m land subset = assignment land subset then begin
         let v = eval t m in
         match !first with
         | None -> first := Some v
         | Some v0 -> if v <> v0 then begin constant := false; raise Exit end
       end
     done
   with Exit -> ());
  match (!constant, !first) with true, Some v -> Some v | _ -> None

let cofactor_pair t ~var =
  (restrict t ~var ~value:false, restrict t ~var ~value:true)

let quantify op t mask =
  if mask < 0 || mask lsr t.arity <> 0 then invalid_arg "Truthtab: quantified variable out of range";
  let words = Array.copy t.words in
  for v = 0 to t.arity - 1 do
    if (mask lsr v) land 1 = 1 then combine op words v
  done;
  { t with words }

let exists t ~mask = quantify Either t mask

let forall t ~mask = quantify Both t mask

let permute t p =
  if Array.length p <> t.arity then invalid_arg "Truthtab.permute: bad permutation";
  let seen = Array.make t.arity false in
  Array.iter
    (fun j ->
      if j < 0 || j >= t.arity || seen.(j) then
        invalid_arg "Truthtab.permute: not a permutation";
      seen.(j) <- true)
    p;
  of_fun t.arity (fun m ->
      (* Build the source minterm whose image under p is m. *)
      let src = ref 0 in
      for i = 0 to t.arity - 1 do
        if (m lsr p.(i)) land 1 = 1 then src := !src lor (1 lsl i)
      done;
      eval t !src)

let random rng n =
  check_arity n;
  of_fun n (fun _ -> Ee_util.Prng.bool rng)

let pp fmt t = Format.fprintf fmt "tt%d:%s" t.arity (to_string t)
