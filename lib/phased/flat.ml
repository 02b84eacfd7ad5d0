module Lut4 = Ee_logic.Lut4

type code = Source | Const | Register | Lut | Trigger | Master | Sink

type t = {
  pl : Pl.t;
  code : code array;
  arg : int array;
  func : Lut4.t array;
  support : int array;
  fstart : int array;
  fanin : int array;
  pstart : int array;
  producer : int array;
  pmask : int array;
}

let trigger_bit = 1 lsl Lut4.arity

let of_pl ~caller pl =
  let gates = Pl.gates pl in
  let n = Array.length gates in
  let malformed fmt = Printf.ksprintf (fun s -> invalid_arg (caller ^ ": " ^ s)) fmt in
  let code = Array.make n Lut and arg = Array.make n 0 and func = Array.make n Lut4.const0 in
  let support = Array.make n 0 and fstart = Array.make (n + 1) 0 and masters = ref 0 in
  Array.iteri (fun k id -> arg.(id) <- k) (Pl.source_ids pl);
  Array.iteri
    (fun i g ->
      let k = Array.length g.Pl.fanin in
      fstart.(i + 1) <- fstart.(i) + k;
      match g.Pl.kind with
      | Pl.Source _ -> code.(i) <- Source
      | Pl.Const_source v ->
          code.(i) <- Const;
          arg.(i) <- Bool.to_int v
      | (Pl.Register _ | Pl.Sink _) when k <> 1 -> malformed "gate %d has %d fanins, not 1" i k
      | (Pl.Gate _ | Pl.Trigger _) when k > Lut4.arity -> malformed "gate %d has %d fanins" i k
      | Pl.Register init ->
          code.(i) <- Register;
          arg.(i) <- Bool.to_int init
      | Pl.Sink _ ->
          code.(i) <- Sink;
          arg.(i) <- g.Pl.fanin.(0)
      | Pl.Trigger { func = f; _ } ->
          code.(i) <- Trigger;
          func.(i) <- f
      | Pl.Gate f -> (
          func.(i) <- f;
          match Pl.ee pl i with
          | None -> ()
          | Some e ->
              let tr = e.Pl.trigger in
              let is_trigger =
                tr >= 0 && tr < n && match gates.(tr).Pl.kind with Pl.Trigger _ -> true | _ -> false
              in
              if not is_trigger then malformed "EE trigger %d of gate %d is not a trigger gate" tr i;
              code.(i) <- Master;
              arg.(i) <- tr;
              support.(i) <- e.Pl.support;
              incr masters))
    gates;
  let fanin = Array.make fstart.(n) 0 in
  Array.iteri (fun i g -> Array.blit g.Pl.fanin 0 fanin fstart.(i) (fstart.(i + 1) - fstart.(i))) gates;
  (* Every fanin and trigger as its own producer is an upper bound, exact
     unless a gate reads one producer twice. *)
  let bound = fstart.(n) + !masters in
  let producer = Array.make bound 0 and pmask = Array.make bound 0 in
  let pstart = Array.make (n + 1) 0 and count = ref 0 in
  let add i src bit =
    let j = ref pstart.(i) in
    while !j < !count && producer.(!j) <> src do
      incr j
    done;
    if !j = !count then begin
      producer.(!j) <- src;
      incr count
    end;
    pmask.(!j) <- pmask.(!j) lor bit
  in
  for i = 0 to n - 1 do
    pstart.(i) <- !count;
    for j = fstart.(i) to fstart.(i + 1) - 1 do
      add i fanin.(j) (1 lsl (j - fstart.(i)))
    done;
    if code.(i) = Master then add i arg.(i) trigger_bit
  done;
  pstart.(n) <- !count;
  let trim a = if !count = bound then a else Array.sub a 0 !count in
  { pl; code; arg; func; support; fstart; fanin; pstart; producer = trim producer; pmask = trim pmask }

let token_from f g = match f.code.(g) with Register | Const -> 1 | _ -> 0
let token f j = token_from f f.producer.(j)

type consumers = { cstart : int array; cslot : int array; owner : int array }

let consumers f =
  let n = Array.length f.code and slots = Array.length f.producer in
  let cstart = Array.make (n + 1) 0 and owner = Array.make slots 0 in
  for i = 0 to n - 1 do
    for j = f.pstart.(i) to f.pstart.(i + 1) - 1 do
      owner.(j) <- i;
      cstart.(f.producer.(j) + 1) <- cstart.(f.producer.(j) + 1) + 1
    done
  done;
  for i = 0 to n - 1 do
    cstart.(i + 1) <- cstart.(i + 1) + cstart.(i)
  done;
  let cslot = Array.make slots 0 and fill = Array.sub cstart 0 n in
  for j = 0 to slots - 1 do
    let p = f.producer.(j) in
    cslot.(fill.(p)) <- j;
    fill.(p) <- fill.(p) + 1
  done;
  { cstart; cslot; owner }

let iter_slots f visit =
  for i = Array.length f.code - 1 downto 0 do
    let trigger = ref (-1) in
    for j = f.pstart.(i + 1) - 1 downto f.pstart.(i) do
      if f.pmask.(j) land trigger_bit <> 0 then trigger := j else visit i j
    done;
    if !trigger >= 0 then visit i !trigger
  done

let marked_graph f =
  let arcs = ref [] in
  iter_slots f (fun i j ->
      let p = f.producer.(j) and k = token f j in
      arcs := (p, i, k) :: !arcs;
      if p <> i then arcs := (i, p, 1 - k) :: !arcs);
  Ee_markedgraph.Marked_graph.make ~nodes:(Array.length f.code) ~arcs:(List.rev !arcs)

let select keep ids =
  let r = Array.make (Array.fold_left (fun c i -> if keep i then c + 1 else c) 0 ids) 0 in
  ignore (Array.fold_left (fun k i -> if keep i then (r.(k) <- i; k + 1) else k) 0 ids);
  r
