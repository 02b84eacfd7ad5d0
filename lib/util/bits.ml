let popcount x =
  let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
  go x 0

let popcount64 (x : int64) =
  let rec go x acc =
    if Int64.equal x 0L then acc
    else go (Int64.shift_right_logical x 1) (acc + Int64.to_int (Int64.logand x 1L))
  in
  go x 0

let get word i = (word lsr i) land 1 = 1

let set word i b = if b then word lor (1 lsl i) else word land lnot (1 lsl i)

let mask n =
  assert (n >= 0 && n <= 62);
  (1 lsl n) - 1

let iter_bits word f =
  let rec go w i =
    if w <> 0 then begin
      if w land 1 = 1 then f i;
      go (w lsr 1) (i + 1)
    end
  in
  go word 0

let fold_bits word f init =
  let acc = ref init in
  iter_bits word (fun i -> acc := f !acc i);
  !acc

let indices word = List.rev (fold_bits word (fun acc i -> i :: acc) [])

let all_nonempty_proper_subsets m =
  (* Walk every sub-mask of [m] via the standard (s - 1) land m trick, then
     sort ascending and drop the empty and full masks. *)
  let subs = ref [] in
  let s = ref m in
  let continue = ref true in
  while !continue do
    if !s <> 0 && !s <> m then subs := !s :: !subs;
    if !s = 0 then continue := false else s := (!s - 1) land m
  done;
  List.sort compare !subs

let log2_ceil n =
  assert (n >= 1);
  let rec go k acc = if acc >= n then k else go (k + 1) (acc * 2) in
  go 0 1
