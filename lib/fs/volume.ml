module Engine = Vino_sim.Engine
module Kernel = Vino_core.Kernel
module Lock = Vino_txn.Lock

type entry = { first_block : int; blocks : int }

type t = {
  kernel : Kernel.t;
  disk : Disk.t;
  vcache : Cache.t;
  vsyncer : Syncer.t;
  bitmap : Bytes.t; (* one byte per block: 0 free, 1 used *)
  total : int;
  bitmap_lock : Lock.t;
  lock_name : string;
  directory : (string, entry) Hashtbl.t;
  mutable used : int;
}

(* scanning the bitmap costs a few hundred instructions (§3.2) *)
let scan_cost_per_word = 2
let words_per_scan_unit = 64

(* Atomic: volumes are created from parallel worker domains (one kernel
   per bench/campaign unit); instance numbers must stay unique. *)
let volumes = Atomic.make 0

let create kernel ~disk ?(blocks = 65_536) ?syncer_threshold () =
  if blocks <= 0 then invalid_arg "Volume.create: need blocks";
  let volume = 1 + Atomic.fetch_and_add volumes 1 in
  let vcache = Cache.create ~capacity:512 () in
  let t =
    {
      kernel;
      disk;
      vcache;
      vsyncer =
        Syncer.create kernel ~cache:vcache ~disk ?threshold:syncer_threshold ();
      bitmap = Bytes.make blocks '\000';
      total = blocks;
      bitmap_lock =
        Kernel.make_lock kernel
          ~timeout:(Vino_txn.Tcosts.us 200.)
          ~name:(Printf.sprintf "fs-bitmap-%d" volume)
          ();
      lock_name = Printf.sprintf "fs-bitmap-%d" volume;
      directory = Hashtbl.create 32;
      used = 0;
    }
  in
  (* the syncer enrolled its own cache/disk-independent state; the volume
     adds the allocation bitmap and directory *)
  Kernel.on_snapshot kernel (fun () ->
      let bitmap = Bytes.copy t.bitmap
      and directory = Hashtbl.copy t.directory
      and used = t.used in
      fun () ->
        Bytes.blit bitmap 0 t.bitmap 0 (Bytes.length bitmap);
        Hashtbl.reset t.directory;
        Hashtbl.iter (Hashtbl.replace t.directory) directory;
        t.used <- used);
  t

let cache t = t.vcache
let syncer t = t.vsyncer
let bitmap_lock_name t = t.lock_name
let free_blocks t = t.total - t.used
let used_blocks t = t.used

let charge_scan scanned =
  Engine.delay (scan_cost_per_word * (scanned / words_per_scan_unit + 1))

(* first-fit search for a free run of [n] blocks; caller holds the lock *)
let find_free_run t n =
  let rec scan start run k =
    if k >= t.total then None
    else if Bytes.get t.bitmap k = '\000' then
      if run + 1 = n then Some start else scan start (run + 1) (k + 1)
    else scan (k + 1) 0 (k + 1)
  in
  let result = scan 0 0 0 in
  charge_scan t.total;
  result

let set_run t ~first ~count value =
  for k = first to first + count - 1 do
    Bytes.set t.bitmap k value
  done;
  t.used <- (t.used + if value = '\001' then count else -count)

let with_bitmap_lock t f =
  match Lock.acquire t.bitmap_lock Exclusive (Lock.plain_owner "fs") () with
  | Lock.Granted held ->
      let result = f () in
      Lock.release held;
      result
  | Lock.Gave_up reason -> Error reason

let open_entry t name entry =
  let file =
    File.openf ~kernel:t.kernel ~cache:t.vcache ~disk:t.disk ~name
      ~first_block:entry.first_block ~blocks:entry.blocks ()
  in
  File.attach_syncer file t.vsyncer;
  file

let create_file t ~name ~blocks =
  if blocks <= 0 then invalid_arg "Volume.create_file: need blocks";
  if Hashtbl.mem t.directory name then
    Error (Printf.sprintf "file %S exists" name)
  else
    with_bitmap_lock t (fun () ->
        match find_free_run t blocks with
        | None -> Error "no contiguous free extent"
        | Some first_block ->
            set_run t ~first:first_block ~count:blocks '\001';
            let entry = { first_block; blocks } in
            Hashtbl.replace t.directory name entry;
            Ok (open_entry t name entry))

let open_file t ~name =
  match Hashtbl.find_opt t.directory name with
  | Some entry -> Ok (open_entry t name entry)
  | None -> Error (Printf.sprintf "no such file %S" name)

let delete_file t ~name =
  match Hashtbl.find_opt t.directory name with
  | None -> Error (Printf.sprintf "no such file %S" name)
  | Some entry ->
      with_bitmap_lock t (fun () ->
          Hashtbl.remove t.directory name;
          set_run t ~first:entry.first_block ~count:entry.blocks '\000';
          (* drop any cached blocks of the dead extent *)
          for b = entry.first_block to entry.first_block + entry.blocks - 1
          do
            Cache.remove t.vcache b
          done;
          Ok ())

let list_files t =
  Hashtbl.fold (fun name e acc -> (name, e.blocks) :: acc) t.directory []
  |> List.sort compare

let fragmentation t =
  let free = free_blocks t in
  if free = 0 then 0.
  else begin
    let largest = ref 0 and run = ref 0 in
    for k = 0 to t.total - 1 do
      if Bytes.get t.bitmap k = '\000' then begin
        incr run;
        if !run > !largest then largest := !run
      end
      else run := 0
    done;
    1. -. (float_of_int !largest /. float_of_int free)
  end
