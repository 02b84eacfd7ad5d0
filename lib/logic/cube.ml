type t = { care : int; value : int }

let make ~care ~value = { care; value = value land care }

let universe = { care = 0; value = 0 }

let of_minterm ~nvars m = make ~care:(Ee_util.Bits.mask nvars) ~value:m

let care t = t.care

let value t = t.value

let num_literals t = Ee_util.Bits.popcount t.care

let contains_minterm t m = m land t.care = t.value

let num_minterms ~nvars t = 1 lsl (nvars - num_literals t)

let minterms ~nvars t =
  let out = ref [] in
  for m = (1 lsl nvars) - 1 downto 0 do
    if contains_minterm t m then out := m :: !out
  done;
  !out

let disjoint a b =
  let common = a.care land b.care in
  a.value land common <> b.value land common

let intersect a b =
  if disjoint a b then None
  else Some { care = a.care lor b.care; value = a.value lor b.value }

let merge a b =
  if a.care <> b.care then None
  else
    let diff = a.value lxor b.value in
    if diff <> 0 && diff land (diff - 1) = 0 then
      Some { care = a.care land lnot diff; value = a.value land lnot diff }
    else None

let supported_on t ~subset = t.care land lnot subset = 0

let equal a b = a.care = b.care && a.value = b.value

let compare a b =
  let c = Stdlib.compare a.care b.care in
  if c <> 0 then c else Stdlib.compare a.value b.value

let to_string ~nvars t =
  String.init nvars (fun i ->
      let v = nvars - 1 - i in
      if (t.care lsr v) land 1 = 0 then '-'
      else if (t.value lsr v) land 1 = 1 then '1'
      else '0')

let of_string s =
  let nvars = String.length s in
  let care = ref 0 and value = ref 0 in
  String.iteri
    (fun i c ->
      let v = nvars - 1 - i in
      match c with
      | '-' -> ()
      | '1' ->
          care := !care lor (1 lsl v);
          value := !value lor (1 lsl v)
      | '0' -> care := !care lor (1 lsl v)
      | _ -> invalid_arg "Cube.of_string: expected '0', '1' or '-'")
    s;
  make ~care:!care ~value:!value

let pp ~nvars fmt t = Format.pp_print_string fmt (to_string ~nvars t)
