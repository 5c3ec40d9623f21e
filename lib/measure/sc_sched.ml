(* Table 5: the scheduling (Prioritization) graft. *)

module Cpu = Vino_vm.Cpu
module Mem = Vino_vm.Mem
module Engine = Vino_sim.Engine
module Kernel = Vino_core.Kernel
module Graft_point = Vino_core.Graft_point
module Runq = Vino_sched.Runq
module Sgrafts = Vino_sched.Grafts

let process_count = 64
let switch_cost = Vino_txn.Tcosts.us 27.

type fixture = {
  kernel : Kernel.t;
  runq : Runq.t;
  tasks : Runq.task list;
  cred : Vino_core.Cred.t;
}

let fixture ~graft_support () =
  let kernel = Kernel.create ~mem_words:(1 lsl 16) () in
  let runq = Runq.create kernel ~switch_cost ~graft_support () in
  let tasks =
    List.init process_count (fun k ->
        Runq.spawn_task runq ~name:(Printf.sprintf "proc%d" k))
  in
  { kernel; runq; tasks; cred = Vino_core.Cred.root }

(* One scheduling round: pick the next process (running its delegate),
   switch to it, and switch back — the paper's two-switch measurement. *)
let round fx =
  (match Runq.schedule fx.runq ~cred:fx.cred with
  | Some _ -> ()
  | None -> failwith "sc_sched: empty run queue");
  Engine.delay switch_cost

let segment_words = 256 + 256

(* Entry facts established by [setup_regs]: r2 = segment base (the process
   list), r3 = process count. scan-and-return-self factors its scan into an
   intra-graft [Call], which havocs the analysis state, so the Verified
   path honestly measures close to Safe (see sc_evict for the same
   effect). *)
let verify_config =
  Vino_verify.Verify.config
    ~entry:
      [
        (2, Vino_verify.Verify.seg_window ());
        (3, Vino_verify.Verify.arg_at_most process_count);
      ]
    ~words:segment_words ()

let prepare_rig_memory fx rig =
  let base = Rig.seg_base rig in
  List.iteri
    (fun k task ->
      Mem.store fx.kernel.Kernel.mem (base + k) (Runq.task_id task))
    fx.tasks

let setup_regs ~self cpu =
  Cpu.set_reg cpu 1 self;
  Cpu.set_reg cpu 2 (Cpu.segment cpu).Mem.base;
  Cpu.set_reg cpu 3 process_count

(* checking the returned id against the valid-thread hash (Table 5's
   result-checking line, ~4 us) *)
let check_cost = Vino_txn.Tcosts.us 4.

let check_id fx cpu =
  let id = Cpu.reg cpu 0 in
  List.exists (fun t -> Runq.task_id t = id) fx.tasks

(* The rig for [path] with the process list in its segment, and one
   pick of the next process by the delegate graft. *)
let rig_for fx path =
  let rig =
    Rig.load fx.kernel ~entry:verify_config.entry ~words:segment_words
      (Rig.seal fx.kernel ~verify:verify_config
         ~null:[ Vino_vm.Asm.Mov (Vino_vm.Asm.r0, Vino_vm.Asm.r1); Ret ]
         ~full:
           (Sgrafts.scan_and_return_self_source
              ~lock_kcall:(Runq.proclist_lock_name fx.runq)
              ())
         path)
  in
  prepare_rig_memory fx rig;
  let self = Runq.task_id (List.hd fx.tasks) in
  let invoke ~commit _ =
    Rig.run rig ~check_cost ~setup:(setup_regs ~self) ~check:(check_id fx)
      ~commit ()
  in
  (rig, invoke)

let stats ?iterations path =
  match path with
  | Path.Base ->
      let fx = fixture ~graft_support:false () in
      Probe.samples fx.kernel ?iterations (fun _ -> round fx)
  | Path.Vino ->
      let fx = fixture ~graft_support:true () in
      Probe.samples fx.kernel ?iterations (fun _ -> round fx)
  | Path.Null | Path.Unsafe | Path.Safe | Path.Verified | Path.FlowChecked
  | Path.Abort ->
      let rig, invoke = rig_for (fixture ~graft_support:false ()) path in
      Rig.sample rig ?iterations path (fun ~commit k ->
          (* pick + delegate graft + switch + switch back *)
          let outcome = invoke ~commit k in
          Engine.delay (2 * switch_cost);
          outcome)

let measure ?iterations path =
  Vino_sim.Stats.trimmed_mean (stats ?iterations path)

let measure_abort ?iterations ~full () =
  let rig, invoke =
    rig_for
      (fixture ~graft_support:false ())
      (if full then Path.Abort else Path.Null)
  in
  Rig.time_abort rig ?iterations invoke

let paper_elapsed =
  [
    (Path.Base, 54.);
    (Path.Vino, 55.);
    (Path.Null, 131.);
    (Path.Unsafe, 203.);
    (Path.Safe, 208.);
    (Path.Abort, 211.);
  ]

let table ?iterations () =
  Table.graft ~paper:paper_elapsed (measure ?iterations)
    ~increments:
      [
        (Path.Vino, "Indirection cost");
        (Path.Null, "Txn begin+commit+null graft");
        (Path.Unsafe, "Lock + graft function + check");
        (Path.Safe, "MiSFIT overhead");
        (Path.Abort, "Abort cost (above commit)");
      ]
