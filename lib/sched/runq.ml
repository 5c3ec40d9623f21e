module Cpu = Vino_vm.Cpu
module Mem = Vino_vm.Mem
module Engine = Vino_sim.Engine
module Kernel = Vino_core.Kernel
module Kcall = Vino_core.Kcall
module Graft_point = Vino_core.Graft_point
module Calltable = Vino_core.Calltable
module Txn = Vino_txn.Txn

type delegate_request = { self : int; runnable : int list }

type task = {
  tid : int;
  tname : string;
  delegate : (delegate_request, int) Graft_point.t;
  mutable group : int option;
}

type t = {
  kernel : Kernel.t;
  switch_cost : int;
  graft_support : bool;
  delegate_budget : int option;
  lock : Vino_txn.Lock.t;
  lock_name : string;
  tasks : (int, task) Hashtbl.t;
  valid_tids : Calltable.t;
  queue : int Queue.t;
  mutable next_tid : int;
  mutable n_redirects : int;
  mutable n_invalid : int;
}

(* The process list is written above the first 64 words of the graft
   segment, which are reserved as the application-shared window (e.g. for
   handoff flags). *)
let list_area = 64
let max_listed = 64

(* Atomic: run queues are created from parallel worker domains (one
   kernel per bench/campaign unit); instance numbers must stay unique. *)
let instances = Atomic.make 0

let create kernel ?(switch_cost = Vino_txn.Tcosts.us 27.)
    ?(graft_support = true) ?delegate_budget () =
  let instance = 1 + Atomic.fetch_and_add instances 1 in
  let lock =
    Kernel.make_lock kernel
      ~timeout:(Vino_txn.Tcosts.us 200.)
      ~name:(Printf.sprintf "process-list-%d" instance)
      ()
  in
  let lock_name = Printf.sprintf "sched.proclist-lock:%d" instance in
  let (_ : Kcall.fn) =
    Kernel.register_kcall kernel ~name:lock_name (fun ctx ->
        match ctx.Kcall.txn with
        | None -> Kcall.abort "process-list lock outside a transaction"
        | Some txn -> (
            match Txn.acquire_lock txn lock Exclusive with
            | Ok () -> Kcall.ok
            | Error reason -> Kcall.abort reason))
  in
  let t =
    {
      kernel;
      switch_cost;
      graft_support;
      delegate_budget;
      lock;
      lock_name;
      tasks = Hashtbl.create 64;
      valid_tids = Calltable.create ();
      queue = Queue.create ();
      next_tid = 1;
      n_redirects = 0;
      n_invalid = 0;
    }
  in
  Kernel.on_snapshot kernel (Calltable.saver t.valid_tids);
  Kernel.on_snapshot kernel (fun () ->
      (* task records are shared across the capture (their [group] field
         is restored individually); the queue is rebuilt in FIFO order *)
      let tasks = Hashtbl.copy t.tasks
      and groups =
        Hashtbl.fold (fun tid task acc -> (tid, task.group) :: acc) t.tasks []
      and queued = Queue.fold (fun acc tid -> tid :: acc) [] t.queue
      and next_tid = t.next_tid
      and n_redirects = t.n_redirects
      and n_invalid = t.n_invalid in
      fun () ->
        Hashtbl.reset t.tasks;
        Hashtbl.iter (Hashtbl.replace t.tasks) tasks;
        List.iter
          (fun (tid, group) ->
            match Hashtbl.find_opt t.tasks tid with
            | Some task -> task.group <- group
            | None -> ())
          groups;
        Queue.clear t.queue;
        List.iter (fun tid -> Queue.push tid t.queue) (List.rev queued);
        t.next_tid <- next_tid;
        t.n_redirects <- n_redirects;
        t.n_invalid <- n_invalid);
  t

let setup kernel cpu req =
  let seg = Cpu.segment cpu in
  Cpu.set_reg cpu 1 req.self;
  let listed = List.filteri (fun k _ -> k < max_listed) req.runnable in
  List.iteri
    (fun k tid ->
      Mem.store kernel.Kernel.mem (Mem.sandbox seg (list_area + k)) tid)
    listed;
  Cpu.set_reg cpu 2 (seg.Vino_vm.Mem.base + list_area);
  Cpu.set_reg cpu 3 (List.length listed)

let spawn_task t ~name =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  let delegate =
    Graft_point.create
      ~name:(Printf.sprintf "%s.schedule-delegate" name)
      ?budget:t.delegate_budget
      ~default:(fun req -> req.self)
      ~setup:(setup t.kernel)
      ~read_result:(fun cpu _ -> Ok (Cpu.reg cpu 0))
      ()
  in
  let task = { tid; tname = name; delegate; group = None } in
  Hashtbl.replace t.tasks tid task;
  Calltable.add t.valid_tids tid;
  Queue.push tid t.queue;
  Kernel.on_snapshot t.kernel (Graft_point.saver delegate);
  task

let task_id task = task.tid
let task_name task = task.tname
let delegate_point task = task.delegate

let remove_task t task =
  Hashtbl.remove t.tasks task.tid;
  Calltable.remove t.valid_tids task.tid;
  (* lazy removal from the queue: skipped when popped *)
  ()

let join_group _t task ~group = task.group <- Some group

let same_group a b =
  match (a.group, b.group) with
  | Some g1, Some g2 -> g1 = g2
  | _, _ -> false

let runnable_snapshot t =
  Queue.fold (fun acc tid -> tid :: acc) [] t.queue |> List.rev

let rec pop_live t =
  match Queue.pop t.queue with
  | exception Queue.Empty -> None
  | tid -> (
      match Hashtbl.find_opt t.tasks tid with
      | Some task -> Some task
      | None -> pop_live t (* task was removed; skip its stale entry *))

let schedule t ~cred =
  match pop_live t with
  | None -> None
  | Some task ->
      Queue.push task.tid t.queue;
      let req = { self = task.tid; runnable = runnable_snapshot t } in
      let suggestion =
        if t.graft_support then
          Graft_point.invoke task.delegate t.kernel ~cred req
        else Graft_point.default_fn task.delegate req
      in
      let chosen =
        if suggestion = task.tid then task
        else if not (Calltable.mem t.valid_tids suggestion) then begin
          t.n_invalid <- t.n_invalid + 1;
          task
        end
        else
          match Hashtbl.find_opt t.tasks suggestion with
          | Some target when same_group task target ->
              t.n_redirects <- t.n_redirects + 1;
              target
          | Some _ | None ->
              (* delegating outside the consenting group is antisocial
                 (Rule 8): ignored *)
              t.n_invalid <- t.n_invalid + 1;
              task
      in
      Engine.delay t.switch_cost;
      Some chosen

let delegate_redirects t = t.n_redirects
let invalid_delegations t = t.n_invalid
let timeslice = Vino_txn.Tcosts.us 10_000.
let proclist_lock t = t.lock
let proclist_lock_name t = t.lock_name
