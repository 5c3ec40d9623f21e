module Cpu = Vino_vm.Cpu

type ctx = {
  cpu : Cpu.t;
  txn : Vino_txn.Txn.t option;
  cred : Cred.t;
  limits : Vino_txn.Rlimit.t;
}

type impl = ctx -> Cpu.kstatus
type fn = { id : int; name : string; mutable callable : bool; impl : impl }

type registry = {
  mutable fns : fn list; (* newest first; ids are dense from 0 *)
  by_name : (string, fn) Hashtbl.t;
  by_id : (int, fn) Hashtbl.t;
  mutable next_id : int;
  mutable epoch : int;
}

(* Epochs are drawn from one process-wide counter that nothing rewinds,
   so an epoch value names exactly one registry state: every change takes
   a value no registry has held before, including a restore back to a
   captured state. A per-registry counter captured and restored with the
   registry would hand the same value to two different states (restore,
   then a re-registration that reuses an id). *)
let epochs = Atomic.make 0
let fresh_epoch () = 1 + Atomic.fetch_and_add epochs 1

let create () =
  {
    fns = [];
    by_name = Hashtbl.create 32;
    by_id = Hashtbl.create 32;
    next_id = 0;
    epoch = fresh_epoch ();
  }

let register r ~name ?(callable = true) impl =
  if Hashtbl.mem r.by_name name then
    invalid_arg (Printf.sprintf "Kcall.register: duplicate function %S" name);
  let fn = { id = r.next_id; name; callable; impl } in
  r.next_id <- r.next_id + 1;
  r.fns <- fn :: r.fns;
  Hashtbl.replace r.by_name name fn;
  Hashtbl.replace r.by_id fn.id fn;
  r.epoch <- fresh_epoch ();
  fn

let find r id = Hashtbl.find_opt r.by_id id

let set_callable r id v =
  match find r id with
  | None -> invalid_arg (Printf.sprintf "Kcall.set_callable: unknown id %d" id)
  | Some fn ->
      fn.callable <- v;
      r.epoch <- fresh_epoch ()
let id_limit r = r.next_id
let epoch r = r.epoch
let find_by_name r name = Hashtbl.find_opt r.by_name name

let names r = List.rev_map (fun f -> f.name) r.fns

(* Bring the name and id tables from the current registration list to
   [fns]. Each function is consed on exactly once, so the two lists share
   a tail from the newest function they have in common; walk both down to
   it by id, dropping what only the current list registered, then
   re-adding what only [fns] has. O(registrations since), and nothing in a
   trial, which registers no kcall. *)
let rewind r fns =
  let rec split cur cap drop add =
    if cur == cap then (drop, add)
    else
      match (cur, cap) with
      | c :: cur', k :: cap' ->
          if c.id > k.id then split cur' cap (c :: drop) add
          else if k.id > c.id then split cur cap' drop (k :: add)
          else split cur' cap' (c :: drop) (k :: add)
      | c :: cur', [] -> split cur' [] (c :: drop) add
      | [], k :: cap' -> split [] cap' drop (k :: add)
      | [], [] -> (drop, add)
  in
  if r.fns != fns then begin
    let drop, add = split r.fns fns [] [] in
    List.iter
      (fun f ->
        Hashtbl.remove r.by_name f.name;
        Hashtbl.remove r.by_id f.id)
      drop;
    List.iter
      (fun f ->
        Hashtbl.replace r.by_name f.name f;
        Hashtbl.replace r.by_id f.id f)
      add;
    r.fns <- fns
  end

(* Trials toggle callable flags (graft install/remove) but never register
   new kcalls; registrations since the capture are still undone. A
   restore that finds the registry already in the captured state keeps
   its epoch, so a forked trial that touched no registration still hits
   verdicts linked before it; any other restore takes a fresh one. *)
let saver r () =
  let fns = r.fns
  and next_id = r.next_id
  and flags = List.map (fun f -> (f, f.callable)) r.fns in
  fun () ->
    let changed =
      r.fns != fns || List.exists (fun (f, c) -> f.callable <> c) flags
    in
    rewind r fns;
    r.next_id <- next_id;
    List.iter (fun (f, callable) -> f.callable <- callable) flags;
    if changed then r.epoch <- fresh_epoch ()
let arg cpu k = Cpu.reg cpu (1 + k)
let return cpu v = Cpu.set_reg cpu 0 v
let ok = Cpu.K_ok
let abort reason = Cpu.K_abort reason
