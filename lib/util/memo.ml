type ('k, 'v) t = {
  table : ('k, 'v) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let create ?(size = 64) () = { table = Hashtbl.create size; hits = 0; misses = 0 }

let find_or_add t k compute =
  match Hashtbl.find_opt t.table k with
  | Some v ->
      t.hits <- t.hits + 1;
      v
  | None ->
      t.misses <- t.misses + 1;
      let v = compute () in
      Hashtbl.replace t.table k v;
      v

let find_opt t k = Hashtbl.find_opt t.table k

let mem t k = Hashtbl.mem t.table k

let entries t = Hashtbl.length t.table

let hits t = t.hits

let misses t = t.misses

let clear t =
  Hashtbl.reset t.table;
  t.hits <- 0;
  t.misses <- 0

module Dls = struct
  type ('k, 'v) key = ('k, 'v) t Domain.DLS.key

  let key ?size () = Domain.DLS.new_key (fun () -> create ?size ())

  let get = Domain.DLS.get
end

module Shared = struct
  type nonrec ('k, 'v) t = { memo : ('k, 'v) t; lock : Mutex.t }

  let create ?size () = { memo = create ?size (); lock = Mutex.create () }

  let find_opt s k = Mutex.protect s.lock (fun () -> find_opt s.memo k)

  let find_or_add s k compute =
    match find_opt s k with
    | Some v ->
        Mutex.protect s.lock (fun () -> s.memo.hits <- s.memo.hits + 1);
        v
    | None ->
        (* Compute outside the lock: the value is pure, so a racing domain
           recomputes the same thing and the second store is a no-op. *)
        let v = compute () in
        Mutex.protect s.lock (fun () ->
            s.memo.misses <- s.memo.misses + 1;
            if not (Hashtbl.mem s.memo.table k) then Hashtbl.replace s.memo.table k v);
        v

  let entries s = Mutex.protect s.lock (fun () -> entries s.memo)
end
