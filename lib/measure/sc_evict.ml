(* Table 4: the page-eviction (Prioritization) graft. *)

module Cpu = Vino_vm.Cpu
module Mem = Vino_vm.Mem
module Engine = Vino_sim.Engine
module Kernel = Vino_core.Kernel
module Graft_point = Vino_core.Graft_point
module Frame = Vino_vmem.Frame
module Vas = Vino_vmem.Vas
module Evict = Vino_vmem.Evict
module Vgrafts = Vino_vmem.Grafts

let resident_pages = 512 (* 2 MB at 4 KB *)
let protected_pages = 48

type fixture = {
  kernel : Kernel.t;
  vas : Vas.t;
  evictor : Evict.t; (* graft_support:false — the pure global selection *)
  cred : Vino_core.Cred.t;
}

let fixture () =
  let kernel = Kernel.create ~mem_words:(1 lsl 16) () in
  let frames = Frame.create_table ~frames:(resident_pages + 64) in
  let evictor = Evict.create kernel ~frames ~graft_support:false () in
  let vas = Vas.create kernel ~name:"bench-vas" () in
  Evict.register_vas evictor vas;
  let fx = { kernel; vas; evictor; cred = Vino_core.Cred.root } in
  (* populate the footprint and run one clearing pass of the clock *)
  ignore
    (Engine.spawn kernel.Kernel.engine ~name:"populate" (fun () ->
         for vpage = 0 to resident_pages - 1 do
           ignore (Evict.touch evictor vas ~vpage)
         done;
         ignore (Evict.select_replacement evictor ~cred:fx.cred)));
  Kernel.run kernel;
  fx

let select fx =
  match Evict.select_replacement fx.evictor ~cred:fx.cred with
  | Ok frame -> frame
  | Error `Nothing_evictable -> failwith "sc_evict: nothing evictable"

(* run one selection outside the timed loop (needs a process context) *)
let probe_victim fx =
  let victim = ref 0 in
  ignore
    (Engine.spawn fx.kernel.Kernel.engine ~name:"probe-victim" (fun () ->
         let frame = select fx in
         match frame.Frame.owner with
         | Some o -> victim := o.Frame.vpage
         | None -> ()));
  Kernel.run fx.kernel;
  !victim

(* The graft segment layout: protected list in the shared window (count at
   word 0), candidates at Vas.candidate_area, heap above them. *)
let segment_words = Vas.candidate_area + resident_pages + 512

(* Entry facts established by [setup_regs]: r2 points at the candidate
   list inside the segment, r4 at the segment base, r3 is the candidate
   count. protect-hot-pages uses intra-graft [Call]s, after which the
   analysis havocs its state, so little is provable: the Verified path
   honestly measures close to Safe here (the verifier helps straight-line
   and loop code, not call-heavy code). *)
let verify_config =
  Vino_verify.Verify.config
    ~entry:
      [
        (2, Vino_verify.Verify.seg_window ~off:Vas.candidate_area ());
        (3, Vino_verify.Verify.arg_at_most resident_pages);
        (4, Vino_verify.Verify.seg_window ());
      ]
    ~words:segment_words ()

(* Write the application's hot-page list and the kernel's candidate list
   into the rig's segment once; neither changes between iterations. *)
let prepare_rig_memory fx rig ~victim =
  let mem = fx.kernel.Kernel.mem in
  let base = Rig.seg_base rig in
  Mem.store mem base protected_pages;
  for k = 0 to protected_pages - 1 do
    Mem.store mem (base + 1 + k) k
  done;
  let candidates =
    Vas.resident_pages fx.vas |> List.filter (fun p -> p <> victim)
  in
  List.iteri
    (fun k page -> Mem.store mem (base + Vas.candidate_area + k) page)
    candidates;
  List.length candidates

let setup_regs ~victim ~count cpu =
  let base = (Cpu.segment cpu).Mem.base in
  Cpu.set_reg cpu 1 victim;
  Cpu.set_reg cpu 2 (base + Vas.candidate_area);
  Cpu.set_reg cpu 3 count;
  Cpu.set_reg cpu 4 base

(* the kernel-side verification of the suggestion (ownership + wiredness) *)
let check_choice fx cpu =
  let choice = Cpu.reg cpu 0 in
  Vas.is_resident fx.vas choice && not (Vas.wired fx.vas ~vpage:choice)

let check_cost = Vino_txn.Tcosts.us 2.

(* The rig for [path] with its segment prepared, and the graft's ruling
   on the victim. *)
let rig_for fx path =
  let rig =
    Rig.load fx.kernel ~entry:verify_config.entry ~words:segment_words
      (Rig.seal fx.kernel ~verify:verify_config
         ~null:Vgrafts.accept_victim_source
         ~full:
           (Vgrafts.protect_hot_pages_source
              ~lock_kcall:(Vas.lock_name fx.vas)
              ())
         path)
  in
  let victim = probe_victim fx in
  let count = prepare_rig_memory fx rig ~victim in
  let invoke ~commit _ =
    Rig.run rig ~check_cost
      ~setup:(setup_regs ~victim ~count)
      ~check:(check_choice fx) ~commit ()
  in
  (rig, invoke)

(* one measured iteration: the global victim selection, then the ruling *)
let selecting fx invoke ~commit k =
  ignore (select fx);
  invoke ~commit k

let stats ?iterations path =
  let fx = fixture () in
  match path with
  | Path.Base ->
      Probe.samples fx.kernel ?iterations (fun _ -> ignore (select fx))
  | Path.Vino ->
      let point = Vas.evict_point fx.vas in
      Probe.samples fx.kernel ?iterations (fun _ ->
          let frame = select fx in
          let victim =
            match frame.Frame.owner with
            | Some o -> o.Frame.vpage
            | None -> 0
          in
          ignore
            (Graft_point.invoke point fx.kernel ~cred:fx.cred
               { Vas.victim; candidates = [] }))
  | Path.Null | Path.Unsafe | Path.Safe | Path.Verified | Path.FlowChecked
  | Path.Abort ->
      let rig, invoke = rig_for fx path in
      Rig.sample rig ?iterations path (selecting fx invoke)

let measure ?iterations path =
  Vino_sim.Stats.trimmed_mean (stats ?iterations path)

let measure_abort ?iterations ~full () =
  let rig, invoke =
    rig_for (fixture ()) (if full then Path.Abort else Path.Null)
  in
  Rig.time_abort rig ?iterations invoke

(* The "graft agrees" case: victim is not a hot page, so the graft returns
   it after only the victim check. *)
let measure_agreement ?iterations () =
  let fx = fixture () in
  let rig, invoke = rig_for fx Path.Safe in
  (* overwrite the hot list with pages that never come up as victim *)
  let mem = fx.kernel.Kernel.mem in
  let base = Rig.seg_base rig in
  for k = 0 to protected_pages - 1 do
    Mem.store mem (base + 1 + k) (resident_pages + 100 + k)
  done;
  Vino_sim.Stats.trimmed_mean
    (Rig.sample rig ?iterations Path.Safe (selecting fx invoke))

let paper_elapsed =
  [
    (Path.Base, 39.);
    (Path.Vino, 40.);
    (Path.Null, 130.);
    (Path.Unsafe, 329.);
    (Path.Safe, 355.);
    (Path.Abort, 348.);
  ]

let table ?iterations ?pool () =
  Table.graft ?pool ~paper:paper_elapsed (measure ?iterations)
    ~increments:
      [
        (Path.Vino, "Indirection cost");
        (Path.Null, "Txn begin+commit+null graft+check");
        (Path.Unsafe, "Lock + graft function + check");
        (Path.Safe, "MiSFIT overhead");
        (Path.Abort, "Abort cost (above commit)");
      ]
