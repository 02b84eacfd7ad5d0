type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* SplitMix64 finalizer: two xor-shift-multiply rounds. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t = { state = int64 t }

let bits t n =
  assert (n >= 0 && n <= 30);
  if n = 0 then 0
  else Int64.to_int (Int64.shift_right_logical (int64 t) (64 - n))

let int t bound =
  assert (bound > 0);
  if bound = 1 then 0
  else begin
    (* Rejection sampling over a power-of-two envelope to avoid modulo bias. *)
    let rec width acc = if acc >= bound then acc else width (acc * 2) in
    let w = width 1 in
    let nbits =
      let rec count n acc = if acc >= w then n else count (n + 1) (acc * 2) in
      count 0 1
    in
    let rec draw () =
      let v = bits t nbits in
      if v < bound then v else draw ()
    in
    draw ()
  end

let bool t = bits t 1 = 1

let float t x =
  let v = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  x *. (v /. 9007199254740992.0 (* 2^53 *))

(* [Array.init n (fun _ -> bool t)], with the state kept in an unboxed
   local for the whole vector and stored back once. *)
let bool_vector t n =
  let v = Array.make n false and state = ref t.state in
  for k = 0 to n - 1 do
    state := Int64.add !state golden_gamma;
    v.(k) <- Int64.shift_right_logical (mix !state) 63 = 1L
  done;
  t.state <- !state;
  v

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
