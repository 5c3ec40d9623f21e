module Cpu = Vino_vm.Cpu
module Mem = Vino_vm.Mem
module Engine = Vino_sim.Engine
module Kernel = Vino_core.Kernel
module Graft_point = Vino_core.Graft_point

type ra_request = {
  offset_block : int;
  size_blocks : int;
  last_block : int;
  file_blocks : int;
}

let max_extents = 8

type t = {
  fname : string;
  first_block : int;
  fblocks : int;
  kernel : Kernel.t;
  cache : Cache.t;
  disk : Disk.t;
  prefetch : Prefetch.t;
  ra : (ra_request, int list) Graft_point.t;
  lock : Vino_txn.Lock.t;
  lock_name : string;
  mutable last_block : int;
  mutable syncer : Syncer.t option;
  mutable n_reads : int;
  mutable n_writes : int;
  mutable n_hits : int;
  mutable n_writebacks : int;
  mutable stalled : int;
}

(* Default sequential read-ahead: prefetch the next [window] blocks only
   when the access continues a sequential run. The paper's base path (the
   default selection with all graft support removed) costs ~0.5 us. *)
let default_policy_cost = Vino_txn.Tcosts.us 0.5

let default_policy ~window req =
  Engine.delay default_policy_cost;
  if req.offset_block = req.last_block + 1 then
    List.init window (fun k -> req.offset_block + req.size_blocks + k)
    |> List.filter (fun b -> b < req.file_blocks)
  else []

let setup cpu req =
  Cpu.set_reg cpu 1 req.offset_block;
  Cpu.set_reg cpu 2 req.size_blocks;
  Cpu.set_reg cpu 3 req.last_block;
  (* shared-window address: grafts are position independent *)
  Cpu.set_reg cpu 4 (Cpu.segment cpu).Mem.base

(* Result protocol: r0 = extent count, r1 = address of the block-number
   array in graft memory. Everything is validated: the count is bounded and
   every block must lie within the file (the "detectably invalid" check). *)
let read_result kernel cpu req =
  let count = Cpu.reg cpu 0 in
  if count = 0 then Ok []
  else if count < 0 || count > max_extents then
    Error (Printf.sprintf "extent count %d out of range" count)
  else begin
    let seg = Cpu.segment cpu in
    let addr = Cpu.reg cpu 1 in
    let rec gather acc k =
      if k = count then Ok (List.rev acc)
      else
        let block =
          Mem.load kernel.Kernel.mem (Mem.sandbox seg (addr + k))
        in
        if block < 0 || block >= req.file_blocks then
          Error (Printf.sprintf "prefetch block %d outside file" block)
        else gather (block :: acc) (k + 1)
    in
    gather [] 0
  end

(* Atomic: files are opened from parallel worker domains (one kernel
   per bench/campaign unit); instance names must stay unique. *)
let open_counter = Atomic.make 0

let openf ~kernel ~cache ~disk ~name ~first_block ~blocks ?(ra_window = 1)
    ?ra_budget () =
  if blocks <= 0 || first_block < 0 then invalid_arg "File.openf: bad extent";
  (* each open-file object is independent (descriptors are handles for
     kernel open-file objects), so its pattern-buffer lock function gets a
     unique name *)
  let instance =
    Printf.sprintf "%s#%d" name (1 + Atomic.fetch_and_add open_counter 1)
  in
  let lock_name = Printf.sprintf "ra.lock:%s" instance in
  let lock =
    Kernel.graft_lock kernel
      ~timeout:(Vino_txn.Tcosts.us 500.)
      ~name:(Printf.sprintf "pattern-buffer:%s" instance)
      ~kcall:lock_name
  in
  let ra =
    Graft_point.create
      ~name:(Printf.sprintf "%s.compute-ra" name)
      ?budget:ra_budget
      ~default:(default_policy ~window:ra_window)
      ~setup
      ~read_result:(fun cpu req -> read_result kernel cpu req)
      ()
  in
  let t =
    {
      fname = name;
      first_block;
      fblocks = blocks;
      kernel;
      cache;
      disk;
      prefetch = Prefetch.create kernel.Kernel.engine ~cache ~disk ();
      ra;
      lock;
      lock_name;
      last_block = -1;
      syncer = None;
      n_reads = 0;
      n_writes = 0;
      n_hits = 0;
      n_writebacks = 0;
      stalled = 0;
    }
  in
  (* Enroll the whole open-file world in the kernel snapshot registry
     (the lock enrolled itself in [make_lock]). *)
  Kernel.on_snapshot kernel (Cache.saver cache);
  Kernel.on_snapshot kernel (Disk.saver disk);
  Kernel.on_snapshot kernel (Prefetch.saver t.prefetch);
  Kernel.on_snapshot kernel (Graft_point.saver ra);
  Kernel.on_snapshot kernel (fun () ->
      let last_block = t.last_block
      and syncer = t.syncer
      and n_reads = t.n_reads
      and n_writes = t.n_writes
      and n_hits = t.n_hits
      and n_writebacks = t.n_writebacks
      and stalled = t.stalled in
      fun () ->
        t.last_block <- last_block;
        t.syncer <- syncer;
        t.n_reads <- n_reads;
        t.n_writes <- n_writes;
        t.n_hits <- n_hits;
        t.n_writebacks <- n_writebacks;
        t.stalled <- stalled);
  t

let attach_syncer t syncer = t.syncer <- Some syncer
let name t = t.fname
let blocks t = t.fblocks
let ra_point t = t.ra
let ra_lock t = t.lock
let ra_lock_name t = t.lock_name
let prefetcher t = t.prefetch
let reads t = t.n_reads
let writes t = t.n_writes
let cache_hits t = t.n_hits
let writebacks t = t.n_writebacks
let stall_cycles t = t.stalled

let disk_block t b = t.first_block + b

(* Insertions may push a dirty block off the LRU end: write it back. *)
let insert_with_writeback t ?dirty target =
  match Cache.insert t.cache ?dirty target with
  | Some { Cache.block; dirty = true } ->
      t.n_writebacks <- t.n_writebacks + 1;
      Disk.submit t.disk Disk.Write ~block ~on_complete:(fun () -> ())
  | Some _ | None -> ()

(* Copying one 4 KB block to the application: half the paper's 8 KB bcopy. *)
let copyout_cost = Vino_txn.Tcosts.us 52.

let read t ~cred ~block =
  if block < 0 || block >= t.fblocks then invalid_arg "File.read: bad block";
  t.n_reads <- t.n_reads + 1;
  let target = disk_block t block in
  let before = Engine.now t.kernel.Kernel.engine in
  let hit = Cache.lookup t.cache target in
  if hit then t.n_hits <- t.n_hits + 1
  else begin
    Disk.read t.disk ~block:target;
    insert_with_writeback t target
  end;
  t.stalled <- t.stalled + (Engine.now t.kernel.Kernel.engine - before);
  Engine.delay copyout_cost;
  Prefetch.note_consumed t.prefetch target;
  let req =
    {
      offset_block = block;
      size_blocks = 1;
      last_block = t.last_block;
      file_blocks = t.fblocks;
    }
  in
  t.last_block <- block;
  let decision = Graft_point.invoke t.ra t.kernel ~cred req in
  Prefetch.push t.prefetch (List.map (disk_block t) decision);
  if hit then `Hit else `Miss

(* Whole-block write-allocate: the block becomes resident and dirty; the
   syncer (or LRU eviction) takes it to disk later. *)
let write t ~cred:_ ~block =
  if block < 0 || block >= t.fblocks then invalid_arg "File.write: bad block";
  t.n_writes <- t.n_writes + 1;
  Engine.delay copyout_cost;
  let target = disk_block t block in
  if Cache.mem t.cache target then begin
    ignore (Cache.lookup t.cache target);
    Cache.mark_dirty t.cache target
  end
  else insert_with_writeback t ~dirty:true target;
  match t.syncer with Some s -> Syncer.note_write s | None -> ()
