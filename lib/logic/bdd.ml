type t = Leaf of bool | Node of { id : int; var : int; lo : t; hi : t }

(* Cache keys are packed into a single immediate int — (var, lo, hi) and
   (c, a, b) triples both fit 21 bits per component — so the hot hash
   tables never allocate or hash a tuple.  2^21 nodes is far beyond any
   truth-table-sized BDD (arity <= 16); [mk] checks the bound. *)
let key_bits = 21

let key_limit = 1 lsl key_bits

let pack a b c = ((a lsl key_bits) lor b) lsl key_bits lor c

type manager = {
  unique : (int, t) Hashtbl.t; (* pack(var, lo_id, hi_id) -> node *)
  ite_cache : (int, t) Hashtbl.t;
  mutable next_id : int;
}

let manager () = { unique = Hashtbl.create 1024; ite_cache = Hashtbl.create 1024; next_id = 2 }

let id = function Leaf false -> 0 | Leaf true -> 1 | Node n -> n.id

let zero _ = Leaf false

let one _ = Leaf true

let mk m var lo hi =
  if id lo = id hi then lo
  else begin
    if m.next_id >= key_limit then failwith "Bdd: node limit exceeded";
    let key = pack var (id lo) (id hi) in
    match Hashtbl.find_opt m.unique key with
    | Some n -> n
    | None ->
        let n = Node { id = m.next_id; var; lo; hi } in
        m.next_id <- m.next_id + 1;
        Hashtbl.add m.unique key n;
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
        let key = pack (id c) (id a) (id b) in
        (match Hashtbl.find_opt m.ite_cache key with
        | Some r -> r
        | None ->
            let v = min (top_var c) (min (top_var a) (top_var b)) in
            let c0, c1 = cofactors c v in
            let a0, a1 = cofactors a v in
            let b0, b1 = cofactors b v in
            let r = mk m v (ite m c0 a0 b0) (ite m c1 a1 b1) in
            Hashtbl.add m.ite_cache key r;
            r)

let lognot m a = ite m a (Leaf false) (Leaf true)

let logand m a b = ite m a b (Leaf false)

let logor m a b = ite m a (Leaf true) b

let logxor m a b = ite m a (lognot m b) b

let rec restrict m node ~var:v ~value =
  match node with
  | Leaf _ -> node
  | Node n ->
      if n.var > v then node
      else if n.var = v then if value then n.hi else n.lo
      else mk m n.var (restrict m n.lo ~var:v ~value) (restrict m n.hi ~var:v ~value)

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

let rec any_sat_node = function
  | Leaf false -> None
  | Leaf true -> Some 0
  | Node n -> (
      (* Prefer the hi branch so the witness mentions the top variable when
         possible; unmentioned variables default to 0.  Reduction guarantees
         at least one branch is satisfiable when the node is not [zero]. *)
      match any_sat_node n.hi with
      | Some m -> Some (m lor (1 lsl n.var))
      | None -> any_sat_node n.lo)

let any_sat _m node = any_sat_node node

let exists_mask m node ~mask =
  Ee_util.Bits.fold_bits mask
    (fun acc v ->
      logor m (restrict m acc ~var:v ~value:false) (restrict m acc ~var:v ~value:true))
    node

let forall_mask m node ~mask =
  Ee_util.Bits.fold_bits mask
    (fun acc v ->
      logand m (restrict m acc ~var:v ~value:false) (restrict m acc ~var:v ~value:true))
    node

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
