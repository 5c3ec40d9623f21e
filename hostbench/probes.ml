(* Layer probes: each one times a layer's public entry point from outside
   the program and returns host ns per operation. The traced run
   multiplies these by the operation counts the trace sink recorded; the
   engine events (and txn pairs) a probe itself incurs are subtracted, so
   a layer is not charged for the layers beneath it. *)

module Asm = Vino_vm.Asm
module Cpu = Vino_vm.Cpu
module Jit = Vino_vm.Jit
module Mem = Vino_vm.Mem
module Engine = Vino_sim.Engine
module Txn = Vino_txn.Txn
module Rlimit = Vino_txn.Rlimit
module Kernel = Vino_core.Kernel
module Kcall = Vino_core.Kcall
module Cred = Vino_core.Cred
module Linker = Vino_core.Linker
module Wrapper = Vino_core.Wrapper
module Event_point = Vino_core.Event_point
module Graft_point = Vino_core.Graft_point
module Trace = Vino_trace.Trace
module Ledger = Hostbench.Ledger

(* from the process start, so a float keeps sub-microsecond digits *)
let origin = Unix.gettimeofday ()
let now_ns () = (Unix.gettimeofday () -. origin) *. 1e9

let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, now_ns () -. t0)

(* Timed from a compacted heap, so a batch's time does not depend on the
   garbage earlier batches left behind. *)
let timed_clean f =
  Gc.compact ();
  timed f

(* Median host ns of seven runs of [run], after one untimed warm-up. *)
let time run =
  run ();
  Ledger.median (List.init 7 (fun _ -> snd (timed run)))

(* [f] repeated until one timing covers at least [ops] operations of
   [per_round] each *)
let rounds ~ops ~per_round f () =
  for _ = 1 to max 1 (ops / per_round) do
    f ()
  done

let rounds_count ~ops ~per_round = max 1 (ops / per_round) * per_round

(* A fixed loop of dependent loads and stores over a 512 KB table, with
   branches, independent of every module of the program. It allocates
   nothing, so its time does not depend on the heap a workload keeps.
   Timed around each batch, it measures how fast the shared host runs at
   that moment. *)
let calibration_table = Array.init 65_536 (fun i -> (i * 40_503) land 0xFFFF)

let calibration () =
  let a = calibration_table in
  let x = ref 1 in
  for i = 1 to 500_000 do
    let j = (!x + i) land 0xFFFF in
    let v = Array.unsafe_get a j in
    x := if v land 1 = 0 then (!x * 31) + v else !x lxor (v lsl 3);
    Array.unsafe_set a j ((v + i) land 0xFFFF)
  done;
  ignore (Sys.opaque_identity !x)

(* Median host ns of three calibration loops *)
let calibration_ns () =
  Ledger.median (List.init 3 (fun _ -> snd (timed calibration)))

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* One run under a private sink for the counts, then untraced timings. *)
type measured = { ns : float; sink : Trace.t }

let measure run =
  let sink = Trace.create ~span_capacity:16 () in
  Trace.with_t sink run;
  { ns = time run; sink }

let count m name = Trace.counter_value m.sink name
let ops = 4_000

(* ---- engine: an event that resumes a delayed process, and one that
   starts a spawned process (Engine.at + spawn + run) ---- *)
type engine_costs = { resume : float; spawn : float }

let engine_costs () =
  let n = 25 * ops in
  let resume =
    time (fun () ->
        let e = Engine.create () in
        ignore
          (Engine.spawn e ~name:"w" (fun () ->
               for _ = 1 to n do
                 Engine.delay 1
               done));
        Engine.run e)
    /. float_of_int n
  in
  let spawned =
    time (fun () ->
        let e = Engine.create () in
        for i = 1 to ops do
          let (_ : Engine.cancel) =
            Engine.at e (i * 10) (fun () ->
                ignore (Engine.spawn e ~name:"w" ignore))
          in
          ()
        done;
        Engine.run e)
  in
  { resume; spawn = (spawned /. float_of_int ops) -. resume }

(* Engine host time for a count of events, [spawns] of them process
   starts and the rest priced as resumes. *)
let engine_ns ec ~events ~spawns =
  (float_of_int spawns *. ec.spawn)
  +. (float_of_int (events - spawns) *. ec.resume)

(* Host ns per op once the engine events the run executed, and the
   named counters' costs, are taken out. *)
let net ~ops ~engine ?(less = []) m =
  let beneath =
    List.fold_left
      (fun acc (counter, ns) -> acc +. (float_of_int (count m counter) *. ns))
      (engine_ns engine
         ~events:(count m "sim.events_executed")
         ~spawns:(count m "sim.procs_spawned"))
      less
  in
  (m.ns -. beneath) /. float_of_int ops

let in_kernel body () =
  let k = Kernel.create ~mem_words:(1 lsl 12) () in
  ignore (Engine.spawn k.Kernel.engine ~name:"probe" (fun () -> body k));
  Kernel.run k

(* ---- txn: begin/commit, begin/abort, an uncontended lock, undo ---- *)
type txn_costs = {
  commit_pair : float;
  abort_pair : float;
  lock : float;
  push : float;
  replay : float;
}

let txn_costs ~engine =
  let pairs finish =
    in_kernel (fun k ->
        let finish = finish k in
        for _ = 1 to ops do
          finish (Txn.begin_ k.Kernel.txn_mgr ~name:"probe" ())
        done)
  in
  let commit _ t = ignore (Txn.commit t) in
  let abort _ t = Txn.abort t ~reason:"probe" in
  let undos = 8 in
  let with_undo finish k t =
    for _ = 1 to undos do
      Txn.push_undo t ~label:"probe" ignore
    done;
    finish k t
  in
  let locked k =
    let lock = Kernel.make_lock k ~name:"probe" () in
    fun t ->
      ignore (Txn.acquire_lock t lock Vino_txn.Lock_policy.Exclusive);
      ignore (Txn.commit t)
  in
  let per m = net ~ops ~engine m in
  let commit_pair = per (measure (pairs commit))
  and abort_pair = per (measure (pairs abort))
  and lock_commit = per (measure (pairs locked))
  and undo_commit = per (measure (pairs (with_undo commit)))
  and undo_abort = per (measure (pairs (with_undo abort))) in
  let n = float_of_int undos in
  {
    commit_pair;
    abort_pair;
    lock = lock_commit -. commit_pair;
    push = (undo_commit -. commit_pair) /. n;
    replay = (undo_abort -. undo_commit -. (abort_pair -. commit_pair)) /. n;
  }

(* ---- kcall: one crossing through the wrapper's dispatcher to a
   registered function that does nothing ---- *)
let kcall_ns () =
  let k = Kernel.create ~mem_words:(1 lsl 12) () in
  let fn = Kernel.register_kcall k ~name:"probe.nop" (fun _ -> Kcall.ok) in
  let env =
    Wrapper.env k ~txn:None ~cred:Cred.root ~limits:(Rlimit.unlimited ())
  in
  let cpu = Cpu.make ~mem:k.Kernel.mem ~seg:(Mem.segment ~base:0 ~size:64) () in
  let n = 100 * ops in
  time (fun () ->
      for _ = 1 to n do
        ignore (env.Cpu.kcall fn.Kcall.id cpu)
      done)
  /. float_of_int n

(* ---- toolchain: assemble + seal of the workload's own sources ---- *)
let seal_exn k obj =
  match Kernel.seal k obj with
  | Ok image -> image
  | Error e -> failwith ("seal: " ^ e)

let toolchain_ns k sources =
  let per_round = List.length sources in
  let run () =
    List.iter (fun src -> ignore (seal_exn k (Asm.assemble_exn src))) sources
  in
  time (rounds ~ops:256 ~per_round run)
  /. float_of_int (rounds_count ~ops:256 ~per_round)

(* ---- link: Linker.load + unload with the translation cached (a hit),
   plus the Jit.translate a miss adds on top ---- *)
type link_costs = { hit : float; miss : float; words_per_miss : float }

let load_exn k ~words image =
  match Linker.load k ~words image with
  | Ok l -> l
  | Error e -> failwith ("link: " ^ e)

let link_costs k ~words images =
  let n = float_of_int (List.length images) in
  let loads () =
    List.iter (fun img -> Linker.unload k (load_exn k ~words img)) images
  in
  let codes =
    List.map
      (fun img ->
        let l = load_exn k ~words img in
        Linker.unload k l;
        l.Linker.code)
      images
  in
  let translate () =
    List.iter
      (fun code -> ignore (Jit.translate ~costs:k.Kernel.vm_costs code))
      codes
  in
  let per_round = List.length images in
  let n_timed = float_of_int (rounds_count ~ops:64 ~per_round) in
  let hit = time (rounds ~ops:64 ~per_round loads) /. n_timed in
  let tr = time (rounds ~ops:64 ~per_round translate) /. n_timed in
  {
    hit;
    miss = hit +. tr;
    words_per_miss = (minor_words loads +. minor_words translate) /. n;
  }

(* ---- vm: Jit.run of the loaded graft on the workload's own entry
   states, in wrapper-sized fuel slices, against an environment whose
   kernel calls return at once ---- *)
type vm_costs = { ns_per_run : float; insns : float; sandbox : float }

let stub_env =
  {
    Cpu.kcall = (fun _ _ -> Cpu.K_ok);
    call_ok = (fun _ -> true);
    poll = (fun () -> None);
  }

let vm_costs k (loaded : Linker.loaded) setups =
  let cpu =
    Cpu.make ~mem:k.Kernel.mem ~seg:loaded.Linker.seg
      ~costs:k.Kernel.vm_costs ()
  in
  let rec go () =
    Cpu.refuel cpu Wrapper.default_slice;
    match Jit.run stub_env cpu loaded.Linker.trans with
    | Cpu.Out_of_fuel -> go ()
    | Cpu.Halted -> ()
    | o -> failwith (Format.asprintf "vm probe: %a" Cpu.pp_outcome o)
  in
  let one setup =
    Cpu.reset cpu;
    setup cpu;
    go ()
  in
  let per_round = List.length setups in
  let n = float_of_int per_round in
  let insns = ref 0 and sandbox = ref 0 in
  List.iter
    (fun setup ->
      one setup;
      insns := !insns + Cpu.insns_executed cpu;
      sandbox := !sandbox + Cpu.sandbox_cycles cpu)
    setups;
  {
    ns_per_run =
      time (rounds ~ops:500 ~per_round (fun () -> List.iter one setups))
      /. float_of_int (rounds_count ~ops:500 ~per_round);
    insns = float_of_int !insns /. n;
    sandbox = float_of_int !sandbox /. n;
  }

(* ---- dispatch: a null graft ([li r0, 0; ret]) invoked through the
   workload's own dispatch path, less the engine events and txn pairs
   that path incurs (the null body's two instructions stay in) ---- *)
let null_source = [ Asm.Li (Asm.r0, 0); Asm.Ret ]

let dispatch_ns ~engine ~(txn : txn_costs) ~run =
  net ~ops ~engine ~less:[ ("txn.commits", txn.commit_pair) ] (measure run)

let root_limits () = Rlimit.unlimited ()

(* An event point (serve's path: spawn a worker, begin, run, commit). *)
let event_dispatch_ns ~engine ~txn =
  let run () =
    let k = Kernel.create ~mem_words:(1 lsl 12) () in
    let ep = Event_point.create ~name:"probe" () in
    let img = seal_exn k (Asm.assemble_exn null_source) in
    (match
       Event_point.add_handler ep k ~cred:Cred.root ~payload_words:16
         ~heap_words:16 ~limits:(root_limits ()) img
     with
    | Ok _ -> ()
    | Error e -> failwith e);
    let payload = [| 0; 0; 0; 0 |] in
    for i = 1 to ops do
      let (_ : Engine.cancel) =
        Engine.at k.Kernel.engine (i * 1_000) (fun () ->
            Event_point.dispatch ep k ~payload)
      in
      ()
    done;
    Kernel.run k
  in
  dispatch_ns ~engine ~txn ~run

(* A function graft point (the campaign sites' path). *)
let graft_point_dispatch_ns ~engine ~txn =
  let run () =
    let k = Kernel.create ~mem_words:(1 lsl 12) () in
    let gp =
      Graft_point.create ~name:"probe" ~default:Fun.id
        ~setup:(fun _ _ -> ())
        ~read_result:(fun cpu _ -> Ok (Cpu.reg cpu 0))
        ()
    in
    let img = seal_exn k (Asm.assemble_exn null_source) in
    (match
       Graft_point.replace gp k ~cred:Cred.root ~limits:(root_limits ()) img
     with
    | Ok () -> ()
    | Error e -> failwith e);
    ignore
      (Engine.spawn k.Kernel.engine ~name:"probe" (fun () ->
           for i = 1 to ops do
             ignore (Graft_point.invoke gp k ~cred:Cred.root i)
           done));
    Kernel.run k
  in
  dispatch_ns ~engine ~txn ~run

(* The measurement rig (crypt's path: Rig.run around Wrapper.exec). *)
let rig_dispatch_ns ~engine ~txn =
  let run () =
    let k = Kernel.create ~mem_words:(1 lsl 12) () in
    let rig =
      Vino_measure.Rig.load k ~words:64
        (seal_exn k (Asm.assemble_exn null_source))
    in
    ignore
      (Engine.spawn k.Kernel.engine ~name:"probe" (fun () ->
           for _ = 1 to ops do
             ignore
               (Vino_measure.Rig.run rig ~indirection:0 ~check_cost:0
                  ~commit:true ())
           done));
    Kernel.run k
  in
  dispatch_ns ~engine ~txn ~run
