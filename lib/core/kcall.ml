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
}

let create () =
  { fns = []; by_name = Hashtbl.create 32; by_id = Hashtbl.create 32;
    next_id = 0 }

let register r ~name ?(callable = true) impl =
  if Hashtbl.mem r.by_name name then
    invalid_arg (Printf.sprintf "Kcall.register: duplicate function %S" name);
  let fn = { id = r.next_id; name; callable; impl } in
  r.next_id <- r.next_id + 1;
  r.fns <- fn :: r.fns;
  Hashtbl.replace r.by_name name fn;
  Hashtbl.replace r.by_id fn.id fn;
  fn

let find r id = Hashtbl.find_opt r.by_id id

let set_callable r id v =
  match find r id with
  | None -> invalid_arg (Printf.sprintf "Kcall.set_callable: unknown id %d" id)
  | Some fn -> fn.callable <- v
let id_limit r = r.next_id
let find_by_name r name = Hashtbl.find_opt r.by_name name

let callable_ids r =
  r.fns |> List.filter (fun f -> f.callable) |> List.rev_map (fun f -> f.id)

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
   new kcalls; registrations since the capture are still undone. *)
let saver r () =
  let fns = r.fns
  and next_id = r.next_id
  and flags = List.map (fun f -> (f, f.callable)) r.fns in
  fun () ->
    rewind r fns;
    r.next_id <- next_id;
    List.iter (fun (f, callable) -> f.callable <- callable) flags
let arg cpu k = Cpu.reg cpu (1 + k)
let return cpu v = Cpu.set_reg cpu 0 v
let ok = Cpu.K_ok
let abort reason = Cpu.K_abort reason
