module Engine = Vino_sim.Engine
module Kernel = Vino_core.Kernel
module Txn = Vino_txn.Txn
module Lock = Vino_txn.Lock
module Stats = Vino_sim.Stats

type workload = {
  holders : int;
  hold_cycles : int -> int;
  think_cycles : int;
  rounds : int;
}

let us = Vino_txn.Tcosts.us

let page_io_workload =
  {
    holders = 4;
    (* 10-40 ms, like a page locked across an I/O *)
    hold_cycles = (fun k -> us (10_000. +. float_of_int (k mod 4) *. 10_000.));
    think_cycles = us 5_000.;
    rounds = 25;
  }

let bitmap_workload =
  {
    holders = 6;
    (* a few hundred instructions while the bitmap is traversed *)
    hold_cycles = (fun k -> 200 + (37 * (k mod 8)));
    think_cycles = 2_000;
    rounds = 200;
  }

type recommendation = {
  observed_p99_us : float;
  observed_max_us : float;
  recommended_timeout_us : float;
}

let run_honest_workload kernel lock w ~transactional ~samples =
  let engine = kernel.Kernel.engine in
  for h = 0 to w.holders - 1 do
    ignore
      (Engine.spawn engine
         ~name:(Printf.sprintf "holder-%d" h)
         (fun () ->
           for k = 0 to w.rounds - 1 do
             if transactional then begin
               let txn =
                 Txn.begin_ kernel.Kernel.txn_mgr
                   ~name:(Printf.sprintf "h%d-%d" h k)
                   ()
               in
               match Txn.acquire_lock txn lock Exclusive with
               | Ok () ->
                   let t0 = Engine.now engine in
                   Engine.delay (w.hold_cycles k);
                   (match Txn.commit txn with
                   | Ok () ->
                       Stats.add samples
                         (Vino_vm.Costs.us_of_cycles (Engine.now engine - t0))
                   | Error _ -> ());
                   Engine.delay w.think_cycles
               | Error _ ->
                   Txn.abort txn ~reason:"gave up";
                   Engine.delay w.think_cycles
             end
             else begin
               (match
                  Lock.acquire lock Exclusive
                    (Lock.plain_owner (Printf.sprintf "h%d" h))
                    ()
                with
               | Lock.Granted held ->
                   let t0 = Engine.now engine in
                   Engine.delay (w.hold_cycles k);
                   Lock.release held;
                   Stats.add samples
                     (Vino_vm.Costs.us_of_cycles (Engine.now engine - t0))
               | Lock.Gave_up _ -> ());
               Engine.delay w.think_cycles
             end
           done))
  done;
  Kernel.run kernel

let calibrate w =
  let kernel = Kernel.create ~mem_words:(1 lsl 12) () in
  (* calibration runs with an effectively infinite time-out *)
  let lock = Kernel.make_lock kernel ~timeout:(us 60_000_000.) ~name:"calib" () in
  let samples = Stats.create () in
  run_honest_workload kernel lock w ~transactional:false ~samples;
  let p99 = Stats.percentile samples 99. in
  let maximum = Stats.max_value samples in
  {
    observed_p99_us = p99;
    observed_max_us = maximum;
    recommended_timeout_us = maximum *. 2.0;
  }

type validation = { false_aborts : int; hog_recovery_us : float }

let validate w ~timeout_us =
  let kernel = Kernel.create ~mem_words:(1 lsl 12) () in
  let lock =
    Kernel.make_lock kernel
      ~timeout:(Vino_vm.Costs.cycles_of_us timeout_us)
      ~name:"validated" ()
  in
  let samples = Stats.create () in
  run_honest_workload kernel lock w ~transactional:true ~samples;
  let false_aborts = Txn.aborts kernel.Kernel.txn_mgr in
  (* now a hog takes the lock and spins until told to abort *)
  let engine = kernel.Kernel.engine in
  let recovery = ref 0. in
  let hog_started = ref 0 in
  ignore
    (Engine.spawn engine ~name:"hog" (fun () ->
         let txn = Txn.begin_ kernel.Kernel.txn_mgr ~name:"hog" () in
         match Txn.acquire_lock txn lock Exclusive with
         | Ok () ->
             hog_started := Engine.now engine;
             let rec spin () =
               match Txn.poll txn () with
               | Some reason -> Txn.abort txn ~reason
               | None ->
                   Engine.delay 1_000;
                   spin ()
             in
             spin ()
         | Error reason -> Txn.abort txn ~reason));
  ignore
    (Engine.spawn engine ~name:"honest-waiter" (fun () ->
         Engine.delay (us 500.);
         let txn = Txn.begin_ kernel.Kernel.txn_mgr ~name:"waiter" () in
         (match Txn.acquire_lock txn lock Exclusive with
         | Ok () ->
             recovery :=
               Vino_vm.Costs.us_of_cycles (Engine.now engine - !hog_started)
         | Error _ -> ());
         ignore (Txn.commit txn)));
  Kernel.run kernel;
  { false_aborts; hog_recovery_us = !recovery }

let table () =
  List.concat_map
    (fun (name, w) ->
      let r = calibrate w in
      let v = validate w ~timeout_us:r.recommended_timeout_us in
      [
        Table.elapsed
          (Printf.sprintf "%s: observed p99 hold" name)
          r.observed_p99_us;
        Table.elapsed
          (Printf.sprintf "%s: recommended time-out" name)
          r.recommended_timeout_us;
        Table.elapsed
          (Printf.sprintf "%s: false aborts under it" name)
          (float_of_int v.false_aborts);
        Table.elapsed
          (Printf.sprintf "%s: hog recovery" name)
          v.hog_recovery_us;
      ])
    [ ("page-io", page_io_workload); ("bitmap", bitmap_workload) ]
