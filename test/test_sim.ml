module Sim = Ee_sim.Sim
module Pl = Ee_phased.Pl
module Netlist = Ee_netlist.Netlist
module Lut4 = Ee_logic.Lut4

(* Random sequential netlist generator: a handful of inputs and registers,
   then a pile of random LUTs wired to earlier nodes. *)
let random_netlist seed =
  let rng = Ee_util.Prng.create seed in
  let b = Netlist.builder () in
  let n_in = 2 + Ee_util.Prng.int rng 4 in
  let n_dff = 1 + Ee_util.Prng.int rng 3 in
  let n_lut = 5 + Ee_util.Prng.int rng 25 in
  let inputs = List.init n_in (fun i -> Netlist.add_input b (Printf.sprintf "i%d" i)) in
  let dffs = List.init n_dff (fun _ -> Netlist.add_dff b ~init:(Ee_util.Prng.bool rng)) in
  let pool = ref (inputs @ dffs) in
  for _ = 1 to n_lut do
    let arr = Array.of_list !pool in
    let k = 1 + Ee_util.Prng.int rng 4 in
    let fanin = Array.init k (fun _ -> arr.(Ee_util.Prng.int rng (Array.length arr))) in
    let func = Lut4.of_int (Ee_util.Prng.bits rng 16 land Ee_util.Bits.mask 16) in
    (* Mask the function so it only depends on connected inputs. *)
    let func =
      List.fold_left
        (fun f v -> if v >= k then Lut4.restrict f ~var:v ~value:false else f)
        func [ 0; 1; 2; 3 ]
    in
    let func = if Lut4.equal func Lut4.const0 then Lut4.var 0 else func in
    pool := Netlist.add_lut b func fanin :: !pool
  done;
  let arr = Array.of_list !pool in
  let pick () = arr.(Ee_util.Prng.int rng (Array.length arr)) in
  List.iter (fun d -> Netlist.connect_dff b d ~d:(pick ())) dffs;
  for i = 0 to 1 + Ee_util.Prng.int rng 3 do
    Netlist.set_output b (Printf.sprintf "o%d" i) (pick ())
  done;
  Netlist.finalize b

let qtest name ?(count = 60) prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count QCheck.(int_range 0 1_000_000) prop)

let prop_pl_matches_golden =
  qtest "PL wave simulation = synchronous golden model" (fun seed ->
      let nl = random_netlist seed in
      let pl = Pl.of_netlist nl in
      Sim.equiv_random pl nl ~vectors:40 ~seed:(seed + 1))

let prop_ee_matches_golden =
  qtest "EE netlist still matches the golden model" (fun seed ->
      let nl = random_netlist seed in
      let pl = Pl.of_netlist nl in
      let pl_ee, _ = Ee_core.Synth.run pl in
      Sim.equiv_random pl_ee nl ~vectors:40 ~seed:(seed + 2))

let prop_ee_never_slower_per_gate =
  qtest "EE settle <= no-EE settle + overhead bound" (fun seed ->
      let nl = random_netlist seed in
      let pl = Pl.of_netlist nl in
      let pl_ee, report = Ee_core.Synth.run pl in
      let base = Sim.run_random pl ~vectors:30 ~seed in
      let ee = Sim.run_random pl_ee ~vectors:30 ~seed in
      (* Worst case every EE master on the critical path pays the overhead;
         the settle time can never grow by more than overhead * depth. *)
      let bound =
        base.Sim.avg_settle_time
        +. (0.25 *. float_of_int (1 + List.length report.Ee_core.Synth.inserted))
      in
      ee.Sim.avg_settle_time <= bound +. 1e-9)

let prop_output_before_settle =
  qtest "output time <= settle time" (fun seed ->
      let nl = random_netlist seed in
      let pl = Pl.of_netlist nl in
      let r = Sim.run_random pl ~vectors:20 ~seed in
      Array.for_all2 (fun o s -> o <= s +. 1e-9) r.Sim.output_times r.Sim.settle_times)

let prop_no_ee_settle_constant =
  qtest "without EE the settle time is data-independent" (fun seed ->
      let nl = random_netlist seed in
      let pl = Pl.of_netlist nl in
      let r = Sim.run_random pl ~vectors:20 ~seed in
      Array.for_all (fun s -> s = r.Sim.settle_times.(0)) r.Sim.settle_times)

(* Exact-timing unit test on the quickstart circuit: buf-buf-carry chain. *)
let quickstart_pl () =
  let b = Netlist.builder () in
  let a = Netlist.add_input b "a" in
  let bb = Netlist.add_input b "b" in
  let c = Netlist.add_input b "cin" in
  let buf1 = Netlist.add_lut b (Lut4.var 0) [| c |] in
  let buf2 = Netlist.add_lut b (Lut4.var 0) [| buf1 |] in
  let carry = Netlist.add_lut b Ee_core.Trigger.full_adder_carry [| buf2; bb; a |] in
  Netlist.set_output b "cout" carry;
  let nl = Netlist.finalize b in
  let pl = Pl.of_netlist nl in
  let pl_ee, _ = Ee_core.Synth.run pl in
  (pl, pl_ee)

let test_exact_times_no_ee () =
  let pl, _ = quickstart_pl () in
  let sim = Sim.create pl in
  let w = Sim.apply sim [| true; true; false |] in
  (* Critical path: cin -> buf -> buf -> carry = 3 gate delays. *)
  Alcotest.(check (float 1e-9)) "output time" 3. w.Sim.output_time;
  Alcotest.(check (float 1e-9)) "settle time" 3. w.Sim.settle_time;
  Alcotest.(check int) "no early fires" 0 w.Sim.early_fires

let test_exact_times_ee_early () =
  let _, pl_ee = quickstart_pl () in
  let sim = Sim.create pl_ee in
  (* a = b = 1: generate case; trigger fires at 1.0, master at 1.25. *)
  let w = Sim.apply sim [| true; true; false |] in
  Alcotest.(check bool) "value correct" true w.Sim.outputs.(0);
  Alcotest.(check (float 1e-9)) "early output" 1.25 w.Sim.output_time;
  Alcotest.(check int) "one early fire" 1 w.Sim.early_fires;
  (* Late tokens (buf chain) still bound the settle. *)
  Alcotest.(check (float 1e-9)) "settle waits for late inputs" 2. w.Sim.settle_time

let test_exact_times_ee_propagate () =
  let _, pl_ee = quickstart_pl () in
  let sim = Sim.create pl_ee in
  (* a=1, b=0: propagate; master waits for cin and pays the overhead. *)
  let w = Sim.apply sim [| true; false; true |] in
  Alcotest.(check bool) "value correct" true w.Sim.outputs.(0);
  Alcotest.(check (float 1e-9)) "guarded fire" 3.25 w.Sim.output_time;
  Alcotest.(check int) "no early fire" 0 w.Sim.early_fires

let test_custom_config () =
  let _, pl_ee = quickstart_pl () in
  let sim = Sim.create ~config:{ Sim.gate_delay = 2.0; ee_overhead = 0.5 } pl_ee in
  let w = Sim.apply sim [| true; true; false |] in
  (* Trigger at 2.0, master at 2.5. *)
  Alcotest.(check (float 1e-9)) "scaled early fire" 2.5 w.Sim.output_time

let test_register_state_carries () =
  (* A 1-bit toggler: output alternates across waves. *)
  let b = Netlist.builder () in
  let d = Netlist.add_dff b ~init:false in
  let inv = Netlist.add_lut b (Lut4.lognot (Lut4.var 0)) [| d |] in
  Netlist.connect_dff b d ~d:inv;
  Netlist.set_output b "q" d;
  let pl = Pl.of_netlist (Netlist.finalize b) in
  let sim = Sim.create pl in
  let values = List.init 4 (fun _ -> (Sim.apply sim [||]).Sim.outputs.(0)) in
  Alcotest.(check (list bool)) "toggles" [ false; true; false; true ] values;
  Sim.reset sim;
  Alcotest.(check bool) "reset restores" false (Sim.apply sim [||]).Sim.outputs.(0)

let test_run_stats () =
  let pl, pl_ee = quickstart_pl () in
  let r = Sim.run_random pl ~vectors:50 ~seed:4 in
  Alcotest.(check int) "waves" 50 r.Sim.waves;
  Alcotest.(check (float 1e-9)) "no-EE early rate" 0. r.Sim.early_fire_rate;
  let r' = Sim.run_random pl_ee ~vectors:400 ~seed:4 in
  (* Generate/kill happens for half the (a,b) pairs. *)
  Alcotest.(check bool) "early rate near 0.5" true
    (r'.Sim.early_fire_rate > 0.35 && r'.Sim.early_fire_rate < 0.65)

let test_wrong_vector_length () =
  let pl, _ = quickstart_pl () in
  let sim = Sim.create pl in
  Alcotest.check_raises "length check" (Invalid_argument "Sim.apply: wrong vector length")
    (fun () -> ignore (Sim.apply sim [| true |]))

(* Malformed netlists are refused when a model is built, not deep inside a
   wave, and the same way by every model of a PL netlist.  [Pl.gates] hands
   out the netlist's own array, so each case patches one gate of a freshly
   built netlist. *)
let rejected name pl =
  let vector = Array.make (Array.length (Pl.source_ids pl)) false in
  List.iter
    (fun (model, build) ->
      match build () with
      | () -> Alcotest.failf "%s: accepted by %s" name model
      | exception Invalid_argument msg ->
          Alcotest.(check bool) (name ^ ": " ^ msg) true (String.starts_with ~prefix:model msg))
    [
      ("Sim.create", fun () -> ignore (Sim.create pl));
      ("Rail_sim.create", fun () -> ignore (Ee_phased.Rail_sim.create pl));
      ("Stream_sim.run", fun () -> ignore (Ee_sim.Stream_sim.run pl ~vectors:[ vector ]));
      ("Timed_graph.of_pl", fun () -> ignore (Ee_perf.Timed_graph.of_pl pl));
    ]

(* In [quickstart_pl], gates 0-2 are the inputs, 3-4 the buffers and 5 the
   carry, the only EE master. *)
let trigger_of pl_ee = match Pl.ee pl_ee 5 with Some e -> e.Pl.trigger | None -> assert false

let test_rejects_wide_gate () =
  let pl, _ = quickstart_pl () in
  let gates = Pl.gates pl in
  gates.(5) <- { (gates.(5)) with Pl.fanin = [| 0; 1; 2; 3; 4 |] };
  rejected "gate with 5 fanins" pl

let test_rejects_wide_trigger () =
  let _, pl_ee = quickstart_pl () in
  let gates = Pl.gates pl_ee in
  let tr = trigger_of pl_ee in
  gates.(tr) <- { (gates.(tr)) with Pl.fanin = [| 0; 1; 2; 0; 1 |] };
  rejected "trigger with 5 fanins" pl_ee

let test_rejects_two_fanin_sink () =
  let pl, _ = quickstart_pl () in
  let gates = Pl.gates pl in
  let s = (Pl.sink_ids pl).(0) in
  gates.(s) <- { (gates.(s)) with Pl.fanin = [| 0; 1 |] };
  rejected "sink with 2 fanins" pl

let test_rejects_floating_register () =
  let pl, _ = quickstart_pl () in
  (Pl.gates pl).(3) <- { Pl.kind = Pl.Register false; fanin = [||] };
  rejected "register without fanin" pl

let test_rejects_bad_trigger () =
  let _, pl_ee = quickstart_pl () in
  (Pl.gates pl_ee).(trigger_of pl_ee) <- { Pl.kind = Pl.Gate (Lut4.var 0); fanin = [| 0 |] };
  rejected "EE trigger that is not a trigger gate" pl_ee

(* Reference evaluator transcribed from the record-walking kernel that the
   compiled one replaced: per-gate [Pl.gate] records, a source-position
   table and [Stdlib.max]/[min] folds.  The differential test holds [Sim]
   bit-equal to it. *)
module Reference = struct
  type t = {
    pl : Pl.t;
    delays : float array;
    state : bool array;
    source_pos : (int, int) Hashtbl.t;
    values : bool array;
    times : float array;
    ee_overhead : float;
  }

  let reset t =
    Array.iteri
      (fun i g ->
        match g.Pl.kind with Pl.Register init -> t.state.(i) <- init | _ -> t.state.(i) <- false)
      (Pl.gates t.pl)

  let create ?(ee_overhead = Sim.default_config.Sim.ee_overhead) ~delays pl =
    let n = Array.length (Pl.gates pl) in
    let source_pos = Hashtbl.create 16 in
    Array.iteri (fun k id -> Hashtbl.replace source_pos id k) (Pl.source_ids pl);
    let t =
      {
        pl;
        delays;
        state = Array.make n false;
        source_pos;
        values = Array.make n false;
        times = Array.make n 0.;
        ee_overhead;
      }
    in
    reset t;
    t

  let eval_gate values func fanin =
    let v = Array.make 4 false in
    Array.iteri (fun k f -> v.(k) <- values.(f)) fanin;
    Lut4.eval func v

  let apply t vector =
    let gates = Pl.gates t.pl in
    let values = t.values and times = t.times and ee_overhead = t.ee_overhead in
    let settle = ref 0. in
    let early = ref 0 in
    let fanin_arrival fanin = Array.fold_left (fun acc f -> max acc times.(f)) 0. fanin in
    Array.iter
      (fun i ->
        let g = gates.(i) in
        match g.Pl.kind with
        | Pl.Source _ ->
            values.(i) <- vector.(Hashtbl.find t.source_pos i);
            times.(i) <- 0.
        | Pl.Const_source v ->
            values.(i) <- v;
            times.(i) <- 0.
        | Pl.Register _ ->
            values.(i) <- t.state.(i);
            times.(i) <- 0.
        | Pl.Trigger { func; _ } ->
            values.(i) <- eval_gate values func g.Pl.fanin;
            times.(i) <- fanin_arrival g.Pl.fanin +. t.delays.(i);
            settle := max !settle times.(i)
        | Pl.Gate func -> (
            values.(i) <- eval_gate values func g.Pl.fanin;
            let normal = fanin_arrival g.Pl.fanin +. t.delays.(i) in
            match Pl.ee t.pl i with
            | None ->
                times.(i) <- normal;
                settle := max !settle normal
            | Some e ->
                let trig_time = times.(e.Pl.trigger) in
                let guarded = max normal (trig_time +. t.delays.(i)) +. ee_overhead in
                let fire_time =
                  if values.(e.Pl.trigger) then begin
                    let early_time = trig_time +. ee_overhead in
                    if early_time < guarded then incr early;
                    min guarded early_time
                  end
                  else guarded
                in
                times.(i) <- fire_time;
                settle := max !settle (max fire_time (fanin_arrival g.Pl.fanin)))
        | Pl.Sink _ ->
            values.(i) <- values.(g.Pl.fanin.(0));
            times.(i) <- times.(g.Pl.fanin.(0));
            settle := max !settle times.(i))
      (Pl.topo t.pl);
    Array.iteri
      (fun i g ->
        match g.Pl.kind with
        | Pl.Register _ -> settle := max !settle (times.(g.Pl.fanin.(0)) +. t.delays.(i))
        | _ -> ())
      gates;
    let sink_ids = Pl.sink_ids t.pl in
    let outputs = Array.map (fun s -> values.(s)) sink_ids in
    let output_time = Array.fold_left (fun acc s -> max acc times.(s)) 0. sink_ids in
    Array.iteri
      (fun i g ->
        match g.Pl.kind with Pl.Register _ -> t.state.(i) <- values.(g.Pl.fanin.(0)) | _ -> ())
      gates;
    { Sim.outputs; output_time; settle_time = !settle; early_fires = !early }
end

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let wave_equal (a : Sim.wave) (b : Sim.wave) =
  a.Sim.outputs = b.Sim.outputs
  && bits_equal
       [| a.Sim.output_time; a.Sim.settle_time |]
       [| b.Sim.output_time; b.Sim.settle_time |]
  && a.Sim.early_fires = b.Sim.early_fires

(* b01-b13 and every family at widths 4 and 8, without EE. *)
let base_netlists () =
  let module Itc99 = Ee_bench_circuits.Itc99 in
  let module Families = Ee_bench_circuits.Families in
  let pl name design = (name, Pl.of_netlist (Ee_rtl.Techmap.run_rtl design)) in
  List.filter_map
    (fun (b : Itc99.benchmark) ->
      if b.Itc99.id <= "b13" then Some (pl b.Itc99.id (b.Itc99.build ())) else None)
    Itc99.all
  @ List.concat_map
      (fun (f : Families.family) ->
        List.map
          (fun w -> pl (Printf.sprintf "%s%d" f.Families.name w) (f.Families.build w))
          [ 4; 8 ])
      Families.all

(* Their Eq. 1 EE netlists. *)
let ee_netlists () =
  List.map (fun (name, pl) -> (name, fst (Ee_core.Synth.run pl))) (base_netlists ())

let test_matches_reference () =
  let module D = Ee_sim.Delay_model in
  let netlists = ee_netlists () in
  Alcotest.(check int) "circuits" (13 + (2 * List.length Ee_bench_circuits.Families.all))
    (List.length netlists);
  List.iter
    (fun (name, pl) ->
      let width = Array.length (Pl.source_ids pl) in
      let rng = Ee_util.Prng.create 64 in
      let vectors = Array.init 64 (fun _ -> Ee_util.Prng.bool_vector rng width) in
      List.iter
        (fun (model, delays) ->
          let sim = Sim.create_with_delays ~delays pl in
          let reference = Reference.create ~delays pl in
          let replay pass =
            Array.iteri
              (fun k v ->
                let w = Sim.apply sim v and w' = Reference.apply reference v in
                let values, times = Sim.probe sim in
                if
                  not
                    (wave_equal w w'
                    && values = reference.Reference.values
                    && bits_equal times reference.Reference.times)
                then Alcotest.failf "%s, %s delays, %s, wave %d differs" name model pass k)
              vectors
          in
          replay "first pass";
          Sim.reset sim;
          Reference.reset reference;
          replay "after reset")
        [
          ("uniform", D.uniform pl ~gate_delay:1.0);
          ("jittered", D.jittered pl ~gate_delay:1.0 ~spread:0.5 ~seed:7);
          ("adversarial", D.adversarial_ee pl ~gate_delay:1.0 ~slowdown:3.0);
        ])
    netlists

(* A wave allocates its outputs array and its record, never per-gate
   scratch: the bound does not grow with the gate count. *)
let test_apply_allocation () =
  let nl = Ee_rtl.Techmap.run_rtl (Ee_bench_circuits.Itc99.b12 ()) in
  let pl_ee, _ = Ee_core.Synth.run (Pl.of_netlist nl) in
  let sim = Sim.create pl_ee in
  let rng = Ee_util.Prng.create 12 in
  let width = Array.length (Pl.source_ids pl_ee) in
  let vectors = Array.init 100 (fun _ -> Ee_util.Prng.bool_vector rng width) in
  let before = Gc.minor_words () in
  Array.iter (fun v -> ignore (Sim.apply sim v)) vectors;
  let words = Gc.minor_words () -. before in
  let bound = 100 * (Array.length (Pl.sink_ids pl_ee) + 16) in
  if words >= float_of_int bound then
    Alcotest.failf "100 waves allocated %.0f words (bound %d, %d gates)" words bound
      (Array.length (Pl.gates pl_ee))

let masters pl =
  let n = ref 0 in
  Array.iteri (fun i _ -> if Pl.ee pl i <> None then incr n) (Pl.gates pl);
  !n

(* A {!Sim.run} built from {!Reference.apply} waves: the summary the run
   path must reproduce bit for bit. *)
let reference_run (config : Sim.config) pl vectors =
  let delays = Array.make (Array.length (Pl.gates pl)) config.Sim.gate_delay in
  let r = Reference.create ~ee_overhead:config.Sim.ee_overhead ~delays pl in
  let waves = Array.map (Reference.apply r) vectors in
  let output_times = Array.map (fun w -> w.Sim.output_time) waves in
  let settle_times = Array.map (fun w -> w.Sim.settle_time) waves in
  let early = Array.fold_left (fun acc w -> acc + w.Sim.early_fires) 0 waves in
  let m = masters pl and n = Array.length vectors in
  {
    Sim.waves = n;
    avg_output_time = Ee_util.Stats.mean output_times;
    avg_settle_time = Ee_util.Stats.mean settle_times;
    output_times;
    settle_times;
    early_fire_rate = (if m = 0 then 0. else float_of_int early /. float_of_int (m * n));
  }

let run_equal (a : Sim.run) (b : Sim.run) =
  a.Sim.waves = b.Sim.waves
  && bits_equal a.Sim.output_times b.Sim.output_times
  && bits_equal a.Sim.settle_times b.Sim.settle_times
  && bits_equal
       [| a.Sim.avg_output_time; a.Sim.avg_settle_time; a.Sim.early_fire_rate |]
       [| b.Sim.avg_output_time; b.Sim.avg_settle_time; b.Sim.early_fire_rate |]

(* Search selection (shared triggers) on b01-b13, the first 13 base
   netlists. *)
let search_netlists () =
  List.filteri (fun k _ -> k < 13) (base_netlists ())
  |> List.map (fun (name, pl) -> (name ^ "/search", fst (Ee_search.Search_select.run pl)))

(* [run_random] and [run_vectors] walk only the triggers' cone and the
   time-dynamic gates; their summaries must equal the reference kernel's
   full walk. *)
let test_runs_match_reference () =
  let base = base_netlists () in
  let netlists =
    List.map (fun (n, pl) -> (n ^ "/no-ee", pl)) base @ ee_netlists () @ search_netlists ()
  in
  let configs =
    [
      ("default", Sim.default_config);
      ("no overhead", { Sim.default_config with Sim.ee_overhead = 0. });
      ("overhead > gate delay", { Sim.gate_delay = 1.0; ee_overhead = 1.5 });
    ]
  in
  List.iter
    (fun (name, pl) ->
      let width = Array.length (Pl.source_ids pl) in
      let seed = 2002 in
      let rng = Ee_util.Prng.create seed in
      let random = Array.init 40 (fun _ -> Ee_util.Prng.bool_vector rng width) in
      let rng = Ee_util.Prng.create 17 in
      let given = Array.init 25 (fun _ -> Ee_util.Prng.bool_vector rng width) in
      List.iter
        (fun (cname, config) ->
          if not (run_equal (Sim.run_random ~config pl ~vectors:40 ~seed) (reference_run config pl random))
          then Alcotest.failf "%s, %s: run_random differs" name cname;
          if
            not
              (run_equal
                 (Sim.run_vectors ~config pl (Array.to_list given))
                 (reference_run config pl given))
          then Alcotest.failf "%s, %s: run_vectors differs" name cname)
        configs)
    netlists

(* A netlist without EE has an empty value pass on the run path, but the
   vectors it is handed are still checked. *)
let test_run_vectors_checks () =
  let pl, _ = quickstart_pl () in
  Alcotest.check_raises "wrong length" (Invalid_argument "Sim.apply: wrong vector length")
    (fun () -> ignore (Sim.run_vectors pl [ [| true; false; true |]; [| true |] ]));
  Alcotest.check_raises "no vectors" (Invalid_argument "Sim.run_vectors: no vectors") (fun () ->
      ignore (Sim.run_vectors pl []))

(* Without EE every time is folded into [Sim.create]: a wave costs the two
   recorded times, not a walk over the gates. *)
let test_run_allocation () =
  let pl = Pl.of_netlist (Ee_rtl.Techmap.run_rtl (Ee_bench_circuits.Itc99.b12 ())) in
  let words waves =
    let before = Gc.allocated_bytes () in
    ignore (Sim.run_random pl ~vectors:waves ~seed:12);
    (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
  in
  ignore (words 10);
  let extra = words 1010 -. words 10 in
  if extra >= 4. *. 1000. then
    Alcotest.failf "1000 more waves allocated %.0f words (%d gates)" extra
      (Array.length (Pl.gates pl))

(* Search selection gives several masters one trigger; the early-fire rate
   is a fraction of masters, not of trigger gates. *)
let test_early_fire_rate_shared () =
  let pl = Pl.of_netlist (Ee_rtl.Techmap.run_rtl (Ee_bench_circuits.Itc99.b04 ())) in
  let pl_ee, _ = Ee_search.Search_select.run pl in
  let m = masters pl_ee in
  Alcotest.(check bool) "triggers are shared" true (m > Pl.ee_gate_count pl_ee);
  let rng = Ee_util.Prng.create 5 in
  let width = Array.length (Pl.source_ids pl_ee) in
  let vectors = List.init 200 (fun _ -> Ee_util.Prng.bool_vector rng width) in
  let sim = Sim.create pl_ee in
  let early = List.fold_left (fun acc v -> acc + (Sim.apply sim v).Sim.early_fires) 0 vectors in
  let rate = (Sim.run_vectors pl_ee vectors).Sim.early_fire_rate in
  Alcotest.(check (float 0.)) "hand count" (float_of_int early /. float_of_int (m * 200)) rate;
  Alcotest.(check bool) "at most 1" true (rate <= 1.)

let suite =
  ( "sim",
    [
      Alcotest.test_case "exact times (no EE)" `Quick test_exact_times_no_ee;
      Alcotest.test_case "exact times (EE early)" `Quick test_exact_times_ee_early;
      Alcotest.test_case "exact times (EE propagate)" `Quick test_exact_times_ee_propagate;
      Alcotest.test_case "custom config" `Quick test_custom_config;
      Alcotest.test_case "register state carries" `Quick test_register_state_carries;
      Alcotest.test_case "run stats" `Quick test_run_stats;
      Alcotest.test_case "wrong vector length" `Quick test_wrong_vector_length;
      Alcotest.test_case "rejects gate with 5 fanins" `Quick test_rejects_wide_gate;
      Alcotest.test_case "rejects trigger with 5 fanins" `Quick test_rejects_wide_trigger;
      Alcotest.test_case "rejects sink with 2 fanins" `Quick test_rejects_two_fanin_sink;
      Alcotest.test_case "rejects register without fanin" `Quick test_rejects_floating_register;
      Alcotest.test_case "rejects bad EE trigger" `Quick test_rejects_bad_trigger;
      Alcotest.test_case "matches reference kernel" `Quick test_matches_reference;
      Alcotest.test_case "apply allocation bound" `Quick test_apply_allocation;
      Alcotest.test_case "runs match reference kernel" `Quick test_runs_match_reference;
      Alcotest.test_case "run_vectors input checks" `Quick test_run_vectors_checks;
      Alcotest.test_case "run allocation bound (no EE)" `Quick test_run_allocation;
      Alcotest.test_case "early-fire rate with shared triggers" `Quick
        test_early_fire_rate_shared;
      prop_pl_matches_golden;
      prop_ee_matches_golden;
      prop_ee_never_slower_per_gate;
      prop_output_before_settle;
      prop_no_ee_settle_constant;
    ] )
