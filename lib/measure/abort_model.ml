module Engine = Vino_sim.Engine
module Kernel = Vino_core.Kernel
module Txn = Vino_txn.Txn
module Lock = Vino_txn.Lock

let undo_replay_cost = Vino_txn.Tcosts.us 1.

let abort_cost ?(iterations = 300) ~locks ~undo () =
  let kernel = Kernel.create ~mem_words:(1 lsl 12) () in
  let lock_objects =
    List.init locks (fun k ->
        Kernel.make_lock kernel ~name:(Printf.sprintf "L%d" k) ())
  in
  let engine = kernel.Kernel.engine in
  let stats = Vino_sim.Stats.create () in
  let (_ : Vino_sim.Stats.t) =
    Probe.samples kernel ~iterations (fun _ ->
        let txn = Txn.begin_ kernel.Kernel.txn_mgr ~name:"abort-model" () in
        List.iter
          (fun lock ->
            match Txn.acquire_lock txn lock Exclusive with
            | Ok () -> ()
            | Error reason -> failwith reason)
          lock_objects;
        for k = 0 to undo - 1 do
          Txn.push_undo txn ~cost:undo_replay_cost
            ~label:(Printf.sprintf "u%d" k)
            (fun () -> ())
        done;
        let before = Engine.now engine in
        Txn.abort txn ~reason:"model";
        Vino_sim.Stats.add stats
          (Vino_vm.Costs.us_of_cycles (Engine.now engine - before)))
  in
  Vino_sim.Stats.trimmed_mean stats

let sweep_locks ?iterations ?(locks = [ 0; 1; 2; 4; 8; 16; 32 ]) () =
  List.map (fun l -> (l, abort_cost ?iterations ~locks:l ~undo:0 ())) locks

let fit points =
  let n = float_of_int (List.length points) in
  let sx = List.fold_left (fun a (x, _) -> a +. float_of_int x) 0. points in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0. points in
  let sxx =
    List.fold_left (fun a (x, _) -> a +. (float_of_int x ** 2.)) 0. points
  in
  let sxy =
    List.fold_left (fun a (x, y) -> a +. (float_of_int x *. y)) 0. points
  in
  let slope = ((n *. sxy) -. (sx *. sy)) /. ((n *. sxx) -. (sx *. sx)) in
  let intercept = (sy -. (slope *. sx)) /. n in
  (intercept, slope)

let timeout_latency_bounds () =
  let tick = Vino_sim.Tick.default_tick in
  (* a nominal timeout of one tick lands on the first boundary at or after
     now + tick: between tick and 2*tick away *)
  (tick, 2 * tick)

let table7 ?iterations () =
  let scenarios =
    [
      ("Read-Ahead", Sc_readahead.measure_abort ?iterations, 32., 45.);
      ("Page Eviction", Sc_evict.measure_abort ?iterations, 38., 50.);
      ("Scheduling", Sc_sched.measure_abort ?iterations, 33., 45.);
      ("Encryption", Sc_crypt.measure_abort ?iterations, 36., 36.);
    ]
  in
  List.concat_map
    (fun (name, f, paper_null, paper_full) ->
      let null = f ~full:false () in
      let full = f ~full:true () in
      [
        Table.elapsed ~paper:paper_null (name ^ " (null abort)") null;
        Table.elapsed ~paper:paper_full (name ^ " (full abort)") full;
      ])
    scenarios

let model_table ?iterations () =
  let points = sweep_locks ?iterations () in
  let intercept, slope = fit points in
  List.map
    (fun (l, t) ->
      Table.elapsed
        ~paper:(35. +. (10. *. float_of_int l))
        (Printf.sprintf "abort holding %2d locks" l)
        t)
    points
  @ [
      Table.overhead ~paper:35. "fitted abort overhead (intercept)" intercept;
      Table.overhead ~paper:10. "fitted unlock cost (us/lock)" slope;
    ]
