module Cpu = Vino_vm.Cpu
module Mem = Vino_vm.Mem
module Kernel = Vino_core.Kernel
module Graft_point = Vino_core.Graft_point

type evict_request = { victim : int; candidates : int list }

let candidate_area = 512
let max_candidates = 2048

type t = {
  vid : int;
  vname : string;
  resident : (int, Frame.t) Hashtbl.t;
  evict : (evict_request, int) Graft_point.t;
  lock : Vino_txn.Lock.t;
  lock_name : string;
  mutable n_faults : int;
}

(* Atomic: address spaces are created from parallel worker domains
   (one kernel per bench/campaign unit); ids must stay unique. *)
let next_id = Atomic.make 0

let setup kernel cpu req =
  let seg = Cpu.segment cpu in
  Cpu.set_reg cpu 1 req.victim;
  let candidates =
    if List.length req.candidates > max_candidates then
      List.filteri (fun k _ -> k < max_candidates) req.candidates
    else req.candidates
  in
  (* the candidate list is written above the application's shared window *)
  List.iteri
    (fun k page ->
      Mem.store kernel.Kernel.mem
        (Mem.sandbox seg (candidate_area + k))
        page)
    candidates;
  Cpu.set_reg cpu 2 (seg.Mem.base + candidate_area);
  Cpu.set_reg cpu 3 (List.length candidates);
  Cpu.set_reg cpu 4 seg.Mem.base

let create kernel ?evict_budget ~name () =
  let vid = Atomic.fetch_and_add next_id 1 in
  let evict =
    Graft_point.create
      ~name:(Printf.sprintf "%s.page-eviction" name)
      ?budget:evict_budget
      ~default:(fun req -> req.victim)
      ~setup:(setup kernel)
      (* any integer is accepted here; the global algorithm performs the
         semantic ownership/wiredness verification and ignores bad
         suggestions (§4.2.1) *)
      ~read_result:(fun cpu _ -> Ok (Cpu.reg cpu 0))
      ()
  in
  (* the lock guarding the application-shared hot-page window; eviction
     grafts acquire it through this graft-callable function and two-phase
     locking releases it at commit/abort *)
  let lock_name = Printf.sprintf "evict.lock:%s" name in
  let lock =
    Kernel.graft_lock kernel
      ~timeout:(Vino_txn.Tcosts.us 500.)
      ~name:(Printf.sprintf "hot-pages:%s" name)
      ~kcall:lock_name
  in
  let t =
    {
      vid;
      vname = name;
      resident = Hashtbl.create 256;
      evict;
      lock;
      lock_name;
      n_faults = 0;
    }
  in
  Kernel.on_snapshot kernel (Graft_point.saver evict);
  Kernel.on_snapshot kernel (fun () ->
      (* residency lookups never depend on bucket order ([resident_pages]
         sorts), so a keys/values copy is enough *)
      let resident = Hashtbl.copy t.resident and n_faults = t.n_faults in
      fun () ->
        Hashtbl.reset t.resident;
        Hashtbl.iter (Hashtbl.replace t.resident) resident;
        t.n_faults <- n_faults);
  t

let id t = t.vid
let hot_lock t = t.lock
let lock_name t = t.lock_name
let name t = t.vname

let resident_pages t =
  Hashtbl.fold (fun p _ acc -> p :: acc) t.resident [] |> List.sort compare

let is_resident t vpage = Hashtbl.mem t.resident vpage
let frame_of t vpage = Hashtbl.find_opt t.resident vpage

let map t ~vpage frame =
  frame.Frame.owner <- Some { Frame.vas_id = t.vid; vpage };
  frame.Frame.referenced <- true;
  Hashtbl.replace t.resident vpage frame

let unmap t ~vpage = Hashtbl.remove t.resident vpage

let reference t ~vpage =
  match frame_of t vpage with
  | Some f -> f.Frame.referenced <- true
  | None -> ()

let set_wired t vpage value =
  match frame_of t vpage with
  | Some f -> f.Frame.wired <- value
  | None -> ()

let wire t ~vpage = set_wired t vpage true
let unwire t ~vpage = set_wired t vpage false

let wired t ~vpage =
  match frame_of t vpage with Some f -> f.Frame.wired | None -> false

let evict_point t = t.evict

let protect_pages kernel t pages =
  match Graft_point.shared_base t.evict with
  | None -> ()
  | Some base ->
      Mem.store kernel.Kernel.mem base (List.length pages);
      List.iteri
        (fun k page -> Mem.store kernel.Kernel.mem (base + 1 + k) page)
        pages

let faults t = t.n_faults
let add_fault t = t.n_faults <- t.n_faults + 1
