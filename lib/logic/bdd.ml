type t = Leaf of bool | Node of { id : int; var : int; lo : t; hi : t }

(* The unique table and the ite cache are open-addressing tables keyed by
   an int triple — (var, lo id, hi id) and (c, a, b) ids — stored flat in
   [keys] beside the node in [vals], so a lookup neither allocates nor
   hashes a tuple, and ids are full-width ints: a manager has no node
   ceiling but memory.  [absent] marks an empty slot; a table stays at
   most three-quarters full. *)
type table = { mutable keys : int array; mutable vals : t array; mutable size : int }

let absent = Node { id = -1; var = -1; lo = Leaf false; hi = Leaf false }

let table () = { keys = Array.make (3 * 256) (-1); vals = Array.make 256 absent; size = 0 }

(* The slot holding (a, b, c), or the empty slot where it belongs.  The
   probe is a loop, not a local closure, so it allocates nothing. *)
let slot keys a b c =
  let k = 0x1E3779B97F4A7C15 in
  let h = ((((a * k) + b) * k) + c) * k in
  let mask = (Array.length keys / 3) - 1 in
  let s = ref ((h lxor (h lsr 31)) land mask) in
  while
    let i = 3 * !s in
    keys.(i) >= 0 && not (keys.(i) = a && keys.(i + 1) = b && keys.(i + 2) = c)
  do
    s := (!s + 1) land mask
  done;
  !s

(* Store (a, b, c) -> v in slot [s], which [slot] has just found empty;
   a table about to pass three-quarters full doubles first. *)
let rec add tbl s a b c v =
  let keys = tbl.keys and vals = tbl.vals in
  if 4 * (tbl.size + 1) > 3 * Array.length vals then begin
    tbl.keys <- Array.make (2 * Array.length keys) (-1);
    tbl.vals <- Array.make (2 * Array.length vals) absent;
    tbl.size <- 0;
    Array.iteri
      (fun i w ->
        if w != absent then begin
          let a = keys.(3 * i) and b = keys.((3 * i) + 1) and c = keys.((3 * i) + 2) in
          add tbl (slot tbl.keys a b c) a b c w
        end)
      vals;
    add tbl (slot tbl.keys a b c) a b c v
  end
  else begin
    keys.(3 * s) <- a;
    keys.((3 * s) + 1) <- b;
    keys.((3 * s) + 2) <- c;
    vals.(s) <- v;
    tbl.size <- tbl.size + 1
  end

type manager = {
  unique : table; (* (var, lo id, hi id) -> node *)
  ite_cache : table; (* (c id, a id, b id) -> ite c a b *)
  mutable next_id : int;
}

let manager () = { unique = table (); ite_cache = table (); next_id = 2 }

let id = function Leaf false -> 0 | Leaf true -> 1 | Node n -> n.id

let zero _ = Leaf false

let one _ = Leaf true

let mk m var lo hi =
  if id lo = id hi then lo
  else
    let s = slot m.unique.keys var (id lo) (id hi) in
    let n = m.unique.vals.(s) in
    if n != absent then n
    else begin
      let n = Node { id = m.next_id; var; lo; hi } in
      m.next_id <- m.next_id + 1;
      add m.unique s var (id lo) (id hi) n;
      n
    end

let var m i =
  if i < 0 then invalid_arg "Bdd.var: negative index";
  mk m i (Leaf false) (Leaf true)

let top_var = function Leaf _ -> max_int | Node n -> n.var

let cofactors node v =
  match node with
  | Node n when n.var = v -> (n.lo, n.hi)
  | _ -> (node, node)

let rec ite m c a b =
  match c with
  | Leaf true -> a
  | Leaf false -> b
  | _ ->
      if id a = id b then a
      else
        let r = m.ite_cache.vals.(slot m.ite_cache.keys (id c) (id a) (id b)) in
        if r != absent then r
        else
          let v = Int.min (top_var c) (Int.min (top_var a) (top_var b)) in
          let c0, c1 = cofactors c v in
          let a0, a1 = cofactors a v in
          let b0, b1 = cofactors b v in
          let r = mk m v (ite m c0 a0 b0) (ite m c1 a1 b1) in
          (* The recursion may have moved this key's empty slot. *)
          add m.ite_cache (slot m.ite_cache.keys (id c) (id a) (id b)) (id c) (id a) (id b) r;
          r

let lognot m a = ite m a (Leaf false) (Leaf true)

let logand m a b = ite m a b (Leaf false)

let logor m a b = ite m a (Leaf true) b

let logxor m a b = ite m a (lognot m b) b

let equal a b = id a = id b

let is_const = function Leaf b -> Some b | Node _ -> None

let of_truthtab m tt =
  let n = Truthtab.arity tt in
  (* Shannon expansion with variable 0 at the root (the manager's variable
     order is ascending from the root); [assignment] fixes variables
     [0 .. v-1]. *)
  let rec build v assignment =
    if v >= n then Leaf (Truthtab.eval tt assignment)
    else
      let lo = build (v + 1) assignment in
      let hi = build (v + 1) (assignment lor (1 lsl v)) in
      mk m v lo hi
  in
  build 0 0

let rec eval node minterm =
  match node with
  | Leaf b -> b
  | Node n -> eval (if (minterm lsr n.var) land 1 = 1 then n.hi else n.lo) minterm

let to_truthtab _m node ~arity = Truthtab.of_fun arity (fun minterm -> eval node minterm)

let support _m node =
  let seen = Hashtbl.create 64 in
  let s = ref 0 in
  let rec go = function
    | Leaf _ -> ()
    | Node n ->
        if not (Hashtbl.mem seen n.id) then begin
          Hashtbl.add seen n.id ();
          s := !s lor (1 lsl n.var);
          go n.lo;
          go n.hi
        end
  in
  go node;
  !s

let sat_count _m node ~nvars =
  let cache = Hashtbl.create 64 in
  (* Count over the variables [next .. nvars-1] assuming the node's top
     variable is >= next. *)
  let rec go node next =
    match node with
    | Leaf false -> 0
    | Leaf true -> 1 lsl (nvars - next)
    | Node n ->
        let key = (n.id, next) in
        (match Hashtbl.find_opt cache key with
        | Some c -> c
        | None ->
            let skipped = n.var - next in
            let c = (1 lsl skipped) * (go n.lo (n.var + 1) + go n.hi (n.var + 1)) in
            Hashtbl.add cache key c;
            c)
  in
  go node 0

let node_count _m node =
  let seen = Hashtbl.create 64 in
  let rec go = function
    | Leaf _ -> ()
    | Node n ->
        if not (Hashtbl.mem seen n.id) then begin
          Hashtbl.add seen n.id ();
          go n.lo;
          go n.hi
        end
  in
  go node;
  Hashtbl.length seen
