(* Table 3: the read-ahead (Black Box) graft.

   Workload: the application reads blocks in a random order and announces
   each next read in the buffer it shares with the graft; the grafted
   compute-ra turns the announcement into a one-block prefetch decision.
   Measured here is the compute-ra decision path alone (as in the paper),
   not the disk time it hides. *)

module Cpu = Vino_vm.Cpu
module Mem = Vino_vm.Mem
module Kernel = Vino_core.Kernel
module Graft_point = Vino_core.Graft_point
module File = Vino_fs.File
module Readahead = Vino_fs.Readahead

let file_blocks = 3072 (* 12 MB of 4 KB blocks *)
let shared_words = 16

type fixture = {
  kernel : Kernel.t;
  file : File.t;
  cred : Vino_core.Cred.t;
}

let fixture () =
  let kernel = Kernel.create ~mem_words:(1 lsl 16) () in
  let disk = Vino_fs.Disk.create kernel.Kernel.engine () in
  let cache = Vino_fs.Cache.create ~capacity:file_blocks () in
  let file =
    File.openf ~kernel ~cache ~disk ~name:"bench.db" ~first_block:0
      ~blocks:file_blocks ()
  in
  { kernel; file; cred = Vino_core.Cred.root }

(* a fixed non-sequential request so the default policy does no prefetch *)
let request =
  {
    File.offset_block = 100;
    size_blocks = 1;
    last_block = 42;
    file_blocks;
  }

let setup_regs cpu =
  Cpu.set_reg cpu 1 request.File.offset_block;
  Cpu.set_reg cpu 2 request.File.size_blocks;
  Cpu.set_reg cpu 3 request.File.last_block;
  Cpu.set_reg cpu 4 (Cpu.segment cpu).Mem.base

let segment_words = shared_words + 256

(* What the graft point guarantees at entry (see [setup_regs]): r4 holds
   the segment base. The verifier proves both of compute-ra's accesses
   in-segment from this, so the Verified path runs with no sandboxing. *)
let verify_config =
  Vino_verify.Verify.config
    ~entry:[ (4, Vino_verify.Verify.seg_window ()) ]
    ~words:segment_words ()

let announce rig block =
  Mem.store rig.Rig.kernel.Kernel.mem
    (Rig.seg_base rig + Readahead.pattern_slot)
    block

let check_decision cpu =
  let count = Cpu.reg cpu 0 in
  count >= 0 && count <= File.max_extents

(* The rig for [path], and one decision on the next announced read. *)
let rig_for fx path =
  let rig =
    Rig.load fx.kernel ~entry:verify_config.entry ~words:segment_words
      (Rig.seal fx.kernel ~verify:verify_config ~null:Readahead.null_source
         ~full:
           (Readahead.app_directed_source
              ~lock_kcall:(File.ra_lock_name fx.file))
         path)
  in
  let invoke ~commit k =
    announce rig ((k * 577) mod file_blocks);
    Rig.run rig ~setup:setup_regs ~check:check_decision ~commit ()
  in
  (rig, invoke)

let stats ?iterations path =
  let fx = fixture () in
  let ra = File.ra_point fx.file in
  match path with
  | Path.Base ->
      Probe.samples fx.kernel ?iterations (fun _ ->
          ignore (Graft_point.default_fn ra request))
  | Path.Vino ->
      Probe.samples fx.kernel ?iterations (fun _ ->
          ignore (Graft_point.invoke ra fx.kernel ~cred:fx.cred request))
  | Path.Null | Path.Unsafe | Path.Safe | Path.Verified | Path.FlowChecked
  | Path.Abort ->
      let rig, invoke = rig_for fx path in
      Rig.sample rig ?iterations path invoke

let measure ?iterations path =
  Vino_sim.Stats.trimmed_mean (stats ?iterations path)

let measure_abort ?iterations ~full () =
  let rig, invoke =
    rig_for (fixture ()) (if full then Path.Abort else Path.Null)
  in
  Rig.time_abort rig ?iterations invoke

let paper_elapsed =
  [
    (Path.Base, 0.5);
    (Path.Vino, 1.5);
    (Path.Null, 67.);
    (Path.Unsafe, 104.);
    (Path.Safe, 107.);
    (Path.Abort, 108.);
  ]

let table ?iterations ?pool () =
  Table.graft ?pool ~paper:paper_elapsed (measure ?iterations)
    ~increments:
      [
        (Path.Vino, "Indirection cost");
        (Path.Null, "Txn begin+commit+null graft");
        (Path.Unsafe, "Lock overhead + graft function");
        (Path.Safe, "MiSFIT overhead");
        (Path.Abort, "Abort cost (above commit)");
      ]
