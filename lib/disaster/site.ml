(* A disaster site: one kernel with one graft-point family set up, plus the
   rig the injectors aim at (a lock, a resource limit, an undoable state
   cell, a non-callable function) and the probes the invariant checks read.

   Each campaign injection forks a site from its post-creation snapshot (or
   builds a fresh one), so no state leaks between injections and a same-seed
   re-run sees bit-identical initial conditions. *)

module Asm = Vino_vm.Asm
module Mem = Vino_vm.Mem
module Engine = Vino_sim.Engine
module Txn = Vino_txn.Txn
module Lock = Vino_txn.Lock
module Rlimit = Vino_txn.Rlimit
module Tcosts = Vino_txn.Tcosts
module Kernel = Vino_core.Kernel
module Kcall = Vino_core.Kcall
module Cred = Vino_core.Cred
module Graft_point = Vino_core.Graft_point
module Event_point = Vino_core.Event_point
module Segalloc = Vino_core.Segalloc

type family = Fs_readahead | Vmem_evict | Sched_delegate | Stream_copy | Net_handler

let all_families =
  [ Fs_readahead; Vmem_evict; Sched_delegate; Stream_copy; Net_handler ]

let family_name = function
  | Fs_readahead -> "fs.read-ahead"
  | Vmem_evict -> "vmem.evict"
  | Sched_delegate -> "sched.delegate"
  | Stream_copy -> "stream.copy"
  | Net_handler -> "net.handler"

type t = {
  family : family;
  kernel : Kernel.t;
  cred : Cred.t;
  rig : Injector.rig;
  rig_lock : Lock.t;
  state_cell : int ref;
  state_initial : int;
  locks : (string * Lock.t) list;  (** every lock the family can leak *)
  daemons : string list;  (** processes allowed to idle blocked *)
  healthy : Asm.item list;
  install : Vino_misfit.Image.t -> (unit, string) result;
  grafted : unit -> bool;
  force_remove : unit -> unit;
  drive : unit -> unit;  (** queue the family workload (before [run]) *)
  drive_once : unit -> unit;  (** a single graft-consulting operation *)
  check_default : unit -> (unit, string) result;
      (** after removal: the point must serve the default path correctly
          (runs the engine itself) *)
  baseline_used_words : int;  (** segment allocation before any graft *)
}

(* Small memory, fast tick: lock time-outs land on 50 us boundaries and a
   200k-cycle budget kills runaway grafts in simulated microseconds, so a
   hundred-injection campaign stays cheap. *)
let mem_words = 1 lsl 16
let tick_cycles = 6_000 (* 50 us *)
let graft_budget = 200_000
let rig_lock_timeout = 12_000 (* 100 us, ~2 ticks *)

let fresh_kernel () = Kernel.create ~mem_words ~tick:tick_cycles ()

(* The rig every site exposes. Registered on the site's own kernel. *)
let register_rig kernel =
  let state_cell = ref 0 in
  let rig_lock =
    Kernel.graft_lock kernel ~timeout:rig_lock_timeout ~name:"disaster-rig"
      ~kcall:"disaster.lock"
  in
  let reg name ?callable impl =
    Kernel.register_kcall kernel ~name ?callable impl
  in
  let in_txn ctx f =
    match ctx.Kcall.txn with
    | None -> Kcall.abort "disaster rig: no current transaction"
    | Some txn -> f txn
  in
  let (_ : Kcall.fn) =
    reg "disaster.alloc" (fun ctx ->
        let words = Kcall.arg ctx.Kcall.cpu 0 in
        match Rlimit.request ctx.Kcall.limits Memory_words words with
        | Ok () -> Kcall.ok
        | Error `Denied ->
            Kcall.abort
              (Printf.sprintf "resource limit: %d words denied" words))
  in
  let (_ : Kcall.fn) =
    reg "disaster.state-add" (fun ctx ->
        in_txn ctx (fun txn ->
            let d = Kcall.arg ctx.Kcall.cpu 0 in
            state_cell := !state_cell + d;
            Txn.push_undo txn ~label:"disaster.state-add" (fun () ->
                state_cell := !state_cell - d);
            Kcall.ok))
  in
  let (_ : Kcall.fn) =
    reg "disaster.bad-undo" (fun ctx ->
        in_txn ctx (fun txn ->
            Txn.push_undo txn ~label:"disaster.bad-undo" (fun () ->
                failwith "disaster.bad-undo: undo entry raises");
            Kcall.ok))
  in
  let (_ : Kcall.fn) =
    reg "disaster.nest" (fun ctx ->
        in_txn ctx (fun parent ->
            (* Mutate the cell and take the rig lock under a *child*
               transaction, then commit it: both the undo entry and the
               lock merge into the graft's transaction. A fault after this
               call exercises merged-state recovery (and, with a contender,
               the re-pointed lock owner). *)
            let child =
              Txn.begin_ kernel.Kernel.txn_mgr ~parent ~name:"disaster-nest" ()
            in
            state_cell := !state_cell + 100;
            Txn.push_undo child ~label:"disaster.nest-add" (fun () ->
                state_cell := !state_cell - 100);
            match Txn.acquire_lock child rig_lock Exclusive with
            | Ok () -> (
                match Txn.commit child with
                | Ok () -> Kcall.ok
                | Error reason -> Kcall.abort reason)
            | Error reason ->
                Txn.abort child ~reason;
                Kcall.abort reason))
  in
  let secret =
    reg "disaster.secret" ~callable:false (fun _ctx -> Kcall.ok)
  in
  (* the undoable state cell is trial-mutable: enroll it so a forked trial
     starts from the same value a fresh site would *)
  Kernel.on_snapshot kernel (fun () ->
      let v = !state_cell in
      fun () -> state_cell := v);
  let rig =
    {
      Injector.lock_kcall = "disaster.lock";
      alloc_kcall = "disaster.alloc";
      state_kcall = "disaster.state-add";
      bad_undo_kcall = "disaster.bad-undo";
      nest_kcall = "disaster.nest";
      secret_id = secret.Kcall.id;
      kernel_words = mem_words;
    }
  in
  (rig, rig_lock, state_cell)

(* An innocent competing transaction: takes the rig lock, holds it briefly,
   commits. Against a lock-hogging graft this is the waiter whose time-out
   asks the hog's transaction to abort. *)
let spawn_contender site ~delay =
  let kernel = site.kernel in
  ignore
    (Engine.spawn kernel.Kernel.engine ~name:"contender" (fun () ->
         Engine.delay delay;
         let txn = Txn.begin_ kernel.Kernel.txn_mgr ~name:"contender" () in
         match Txn.acquire_lock txn site.rig_lock Exclusive with
         | Ok () ->
             Engine.delay 1_500;
             ignore (Txn.commit txn)
         | Error reason -> Txn.abort txn ~reason))

(* Generic post-recovery default-path check for function graft points: the
   ungrafted point must produce exactly what the default implementation
   produces. *)
let graft_default_check kernel ~cred ~point ~mk_req () =
  if Graft_point.grafted point then
    Error
      (Printf.sprintf "%s: graft still installed after forcible removal"
         (Graft_point.name point))
  else begin
    let outcome = ref (Error "default-path check did not run") in
    ignore
      (Engine.spawn kernel.Kernel.engine ~name:"default-check" (fun () ->
           let req = mk_req () in
           let got = Graft_point.invoke point kernel ~cred req in
           let want = Graft_point.default_fn point req in
           outcome :=
             (if got = want then Ok ()
              else
                Error
                  (Graft_point.name point
                 ^ ": default path no longer produces the default result"))));
    Kernel.run kernel;
    !outcome
  end

let point_install point kernel ~cred ~shared_words ~heap_words image =
  Graft_point.replace point kernel ~cred ~shared_words ~heap_words image

let baseline kernel = Segalloc.used_words kernel.Kernel.segalloc

(* The last step of every [force_remove]: a pinned attested graph
   belonged to the removed graft, so the check falls back to each graft's
   own table (the defaults'). A check that was off stays off. *)
let unpin_flow kernel =
  match kernel.Kernel.flow_check with
  | Kernel.Flow_pinned _ -> kernel.Kernel.flow_check <- Kernel.Flow_own
  | Flow_off | Flow_own -> ()

(* ------------------------- fs: read-ahead ----------------------------- *)

let fs_site () =
  let kernel = fresh_kernel () in
  let rig, rig_lock, state_cell = register_rig kernel in
  let cred = Cred.user "disaster-app" ~limits:(Rlimit.unlimited ()) in
  let disk = Vino_fs.Disk.create kernel.Kernel.engine () in
  let cache = Vino_fs.Cache.create ~capacity:64 () in
  let blocks = 256 in
  let file =
    Vino_fs.File.openf ~kernel ~cache ~disk ~name:"disaster.db" ~first_block:0
      ~blocks ~ra_budget:graft_budget ()
  in
  let point = Vino_fs.File.ra_point file in
  let workload reads =
    ignore
      (Engine.spawn kernel.Kernel.engine ~name:"fs-workload" (fun () ->
           List.iter
             (fun block ->
               Vino_fs.Readahead.announce kernel point ((block + 1) mod blocks);
               ignore (Vino_fs.File.read file ~cred ~block))
             reads))
  in
  {
    family = Fs_readahead;
    kernel;
    cred;
    rig;
    rig_lock;
    state_cell;
    state_initial = 0;
    locks =
      [ ("rig", rig_lock); ("pattern-buffer", Vino_fs.File.ra_lock file) ];
    daemons = [ "disk"; "prefetchd" ];
    healthy =
      Vino_fs.Readahead.app_directed_source
        ~lock_kcall:(Vino_fs.File.ra_lock_name file);
    install =
      point_install point kernel ~cred ~shared_words:16 ~heap_words:64;
    grafted = (fun () -> Graft_point.grafted point);
    force_remove =
      (fun () ->
        if Graft_point.grafted point then Graft_point.remove point kernel;
        unpin_flow kernel);
    drive = (fun () -> workload [ 5; 17; 18; 90; 91; 92 ]);
    drive_once = (fun () -> workload [ 33 ]);
    check_default =
      graft_default_check kernel ~cred ~point ~mk_req:(fun () ->
          {
            Vino_fs.File.offset_block = 30;
            size_blocks = 1;
            last_block = 29;
            file_blocks = blocks;
          });
    baseline_used_words = baseline kernel;
  }

(* ------------------------- vmem: eviction ----------------------------- *)

let vmem_site () =
  let kernel = fresh_kernel () in
  let rig, rig_lock, state_cell = register_rig kernel in
  let cred = Cred.user "disaster-app" ~limits:(Rlimit.unlimited ()) in
  let frames = 24 in
  let table = Vino_vmem.Frame.create_table ~frames in
  let evictor = Vino_vmem.Evict.create kernel ~frames:table () in
  let vas =
    Vino_vmem.Vas.create kernel ~evict_budget:graft_budget ~name:"disaster-vas"
      ()
  in
  Vino_vmem.Evict.register_vas evictor vas;
  let point = Vino_vmem.Vas.evict_point vas in
  let touch_range lo hi =
    for vpage = lo to hi do
      ignore (Vino_vmem.Evict.touch evictor vas ~vpage)
    done
  in
  {
    family = Vmem_evict;
    kernel;
    cred;
    rig;
    rig_lock;
    state_cell;
    state_initial = 0;
    locks = [ ("rig", rig_lock); ("hot-pages", Vino_vmem.Vas.hot_lock vas) ];
    daemons = [];
    healthy =
      Vino_vmem.Grafts.protect_hot_pages_source
        ~lock_kcall:(Vino_vmem.Vas.lock_name vas) ();
    install =
      point_install point kernel ~cred ~shared_words:64 ~heap_words:256;
    grafted = (fun () -> Graft_point.grafted point);
    force_remove =
      (fun () ->
        if Graft_point.grafted point then Graft_point.remove point kernel;
        unpin_flow kernel);
    drive =
      (fun () ->
        ignore
          (Engine.spawn kernel.Kernel.engine ~name:"vmem-workload" (fun () ->
               (* Fill every frame, declare a working set, then fault in
                  more pages than fit: each fault consults the graft. *)
               touch_range 0 (frames - 1);
               Vino_vmem.Vas.protect_pages kernel vas [ 0; 1; 2 ];
               touch_range frames (frames + 8))));
    drive_once =
      (fun () ->
        ignore
          (Engine.spawn kernel.Kernel.engine ~name:"vmem-once" (fun () ->
               ignore (Vino_vmem.Evict.select_replacement evictor ~cred))));
    check_default =
      graft_default_check kernel ~cred ~point ~mk_req:(fun () ->
          { Vino_vmem.Vas.victim = 3; candidates = [ 4; 5; 6 ] });
    baseline_used_words = baseline kernel;
  }

(* ------------------------ sched: delegation --------------------------- *)

let sched_site () =
  let kernel = fresh_kernel () in
  let rig, rig_lock, state_cell = register_rig kernel in
  let cred = Cred.user "disaster-app" ~limits:(Rlimit.unlimited ()) in
  let runq =
    Vino_sched.Runq.create kernel ~delegate_budget:graft_budget ()
  in
  let a = Vino_sched.Runq.spawn_task runq ~name:"disaster-a" in
  let b = Vino_sched.Runq.spawn_task runq ~name:"disaster-b" in
  Vino_sched.Runq.join_group runq a ~group:1;
  Vino_sched.Runq.join_group runq b ~group:1;
  let point = Vino_sched.Runq.delegate_point a in
  let schedule_n n =
    ignore
      (Engine.spawn kernel.Kernel.engine ~name:"sched-workload" (fun () ->
           for _ = 1 to n do
             ignore (Vino_sched.Runq.schedule runq ~cred)
           done))
  in
  {
    family = Sched_delegate;
    kernel;
    cred;
    rig;
    rig_lock;
    state_cell;
    state_initial = 0;
    locks =
      [ ("rig", rig_lock); ("proclist", Vino_sched.Runq.proclist_lock runq) ];
    daemons = [];
    healthy =
      Vino_sched.Grafts.handoff_source ~target:(Vino_sched.Runq.task_id b);
    install = point_install point kernel ~cred ~shared_words:4 ~heap_words:32;
    grafted = (fun () -> Graft_point.grafted point);
    force_remove =
      (fun () ->
        if Graft_point.grafted point then Graft_point.remove point kernel;
        unpin_flow kernel);
    drive = (fun () -> schedule_n 8);
    drive_once = (fun () -> schedule_n 2);
    check_default =
      graft_default_check kernel ~cred ~point ~mk_req:(fun () ->
          {
            Vino_sched.Runq.self = Vino_sched.Runq.task_id a;
            runnable =
              [ Vino_sched.Runq.task_id a; Vino_sched.Runq.task_id b ];
          });
    baseline_used_words = baseline kernel;
  }

(* ------------------------- stream: transfer --------------------------- *)

let stream_site () =
  let kernel = fresh_kernel () in
  let rig, rig_lock, state_cell = register_rig kernel in
  let cred = Cred.user "disaster-app" ~limits:(Rlimit.unlimited ()) in
  let channel =
    Vino_stream.Channel.create kernel ~name:"disaster-chan" ~buffer_words:64
      ~budget:graft_budget ()
  in
  let point = Vino_stream.Channel.point channel in
  let data = Array.init 48 (fun k -> (7 * k) + 1) in
  let transfer_n n =
    ignore
      (Engine.spawn kernel.Kernel.engine ~name:"stream-workload" (fun () ->
           for _ = 1 to n do
             ignore (Vino_stream.Channel.transfer channel ~cred data)
           done))
  in
  {
    family = Stream_copy;
    kernel;
    cred;
    rig;
    rig_lock;
    state_cell;
    state_initial = 0;
    locks = [ ("rig", rig_lock) ];
    daemons = [];
    healthy = Vino_stream.Grafts.xor_encrypt_source ~key:0x5C;
    install = (fun image -> Vino_stream.Channel.install channel ~cred image);
    grafted = (fun () -> Vino_stream.Channel.grafted channel);
    force_remove =
      (fun () ->
        if Graft_point.grafted point then Graft_point.remove point kernel;
        unpin_flow kernel);
    drive = (fun () -> transfer_n 3);
    drive_once = (fun () -> transfer_n 1);
    check_default =
      graft_default_check kernel ~cred ~point
        ~mk_req:(fun () -> Array.copy data);
    baseline_used_words = baseline kernel;
  }

(* ------------------------- net: http handler -------------------------- *)

let net_site () =
  let kernel = fresh_kernel () in
  let rig, rig_lock, state_cell = register_rig kernel in
  let cred = Cred.user "disaster-app" ~limits:(Rlimit.unlimited ()) in
  let httpd = Vino_net.Httpd.create kernel ~budget:graft_budget () in
  Vino_net.Httpd.add_document httpd ~path:42 ~size:1234;
  let point = Vino_net.Port.event_point (Vino_net.Httpd.port httpd) in
  let handler_id = ref None in
  Kernel.on_snapshot kernel (fun () ->
      let v = !handler_id in
      fun () -> handler_id := v);
  let get_n n =
    for _ = 1 to n do
      Vino_net.Httpd.get httpd ~path:42
    done
  in
  {
    family = Net_handler;
    kernel;
    cred;
    rig;
    rig_lock;
    state_cell;
    state_initial = 0;
    locks = [ ("rig", rig_lock) ];
    daemons = [];
    healthy = Vino_net.Httpd.server_source;
    install =
      (fun image ->
        match Event_point.add_handler point kernel ~cred image with
        | Ok id ->
            handler_id := Some id;
            Ok ()
        | Error e -> Error e);
    grafted = (fun () -> Event_point.handler_count point > 0);
    force_remove =
      (fun () ->
        (match !handler_id with
        | Some id when Event_point.handler_count point > 0 ->
            Event_point.remove_handler point kernel id
        | _ -> ());
        unpin_flow kernel);
    drive = (fun () -> get_n 3);
    drive_once = (fun () -> get_n 1);
    check_default =
      (fun () ->
        (* An event point has no default implementation; "the default path
           resumed" means the port serves a *fresh, healthy* handler
           correctly after the disaster. *)
        if Event_point.handler_count point > 0 then
          Error "net.handler: faulty handler still installed after removal"
        else
          let before = List.length (Vino_net.Httpd.responses httpd) in
          match Vino_net.Httpd.install httpd ~cred with
          | Error e -> Error ("net.handler: healthy re-install failed: " ^ e)
          | Ok id -> (
              Vino_net.Httpd.get httpd ~path:42;
              Kernel.run kernel;
              let after = Vino_net.Httpd.responses httpd in
              Event_point.remove_handler point kernel id;
              match List.filteri (fun k _ -> k >= before) after with
              | [ (200, 1234) ] -> Ok ()
              | _ -> Error "net.handler: healthy handler did not serve a 200"));
    baseline_used_words = baseline kernel;
  }

let create = function
  | Fs_readahead -> fs_site ()
  | Vmem_evict -> vmem_site ()
  | Sched_delegate -> sched_site ()
  | Stream_copy -> stream_site ()
  | Net_handler -> net_site ()

(* Pin the witness protocol's kcall-flow table and turn enforcement on:
   from here on, the kernel believes every graft's call-flow graph is the
   witness's (an attested compile-time graph), so a variant making the same
   kcalls in a different order trips the transition check at dispatch. *)
let pin_flow_witness (site : t) witness =
  match Asm.assemble witness with
  | Error e -> failwith ("flow witness assemble: " ^ e)
  | Ok obj -> (
      match Vino_core.Linker.flow_of_obj site.kernel obj with
      | Error e -> failwith ("flow witness link: " ^ e)
      | Ok table ->
          site.kernel.Kernel.flow_check <- Kernel.Flow_pinned table)
