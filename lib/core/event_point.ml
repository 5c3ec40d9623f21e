module Cpu = Vino_vm.Cpu
module Mem = Vino_vm.Mem
module Engine = Vino_sim.Engine
module Rlimit = Vino_txn.Rlimit

type handler = {
  hid : int;
  order : int;
  loaded : Linker.loaded;
  cred : Cred.t;
  limits : Rlimit.t;
  payload_words : int;
  txn_name : string;
  worker_name : string;
}

type t = {
  ename : string;
  erestricted : bool;
  budget : int;
  mutable handlers : handler list; (* sorted by (order, hid) *)
  mutable next_hid : int;
  mutable n_events : int;
  mutable n_failures : int;
  mutable last_results : (int * int) list;
}

let create ~name ?(restricted = false) ?(budget = Wrapper.default_budget) () =
  {
    ename = name;
    erestricted = restricted;
    budget;
    handlers = [];
    next_hid = 0;
    n_events = 0;
    n_failures = 0;
    last_results = [];
  }

let saver t () =
  let handlers = t.handlers
  and next_hid = t.next_hid
  and n_events = t.n_events
  and n_failures = t.n_failures
  and last_results = t.last_results in
  fun () ->
    t.handlers <- handlers;
    t.next_hid <- next_hid;
    t.n_events <- n_events;
    t.n_failures <- n_failures;
    t.last_results <- last_results

let name t = t.ename
let handler_count t = List.length t.handlers
let events_delivered t = t.n_events
let handler_failures t = t.n_failures
let results t = List.rev t.last_results

let sort_handlers hs =
  List.sort
    (fun a b ->
      match compare a.order b.order with 0 -> compare a.hid b.hid | c -> c)
    hs

(* what [run_handler] establishes: r1 = the payload window at the segment
   base, r2 = a length of at most [payload_words] *)
let entry_facts ~payload_words =
  [
    (1, Vino_verify.Verify.seg_window ());
    (2, Vino_verify.Verify.arg_at_most payload_words);
  ]

let segment_words ~payload_words ~heap_words =
  payload_words + heap_words + 256

let add_handler t kernel ~cred ?order ?(payload_words = 2048)
    ?(heap_words = 1024) ?limits image =
  if t.erestricted && not (Cred.is_privileged cred) then
    Error
      (Printf.sprintf "event point %S is restricted to privileged users"
         t.ename)
  else
    let words = segment_words ~payload_words ~heap_words in
    match
      Linker.load
        ~entry:(entry_facts ~payload_words)
        ~privileged:(Cred.is_privileged cred) kernel ~words image
    with
    | Error reason as e ->
        Kernel.audit_event kernel
          (Audit.Load_rejected { point = t.ename; reason });
        e
    | Ok loaded ->
        let order =
          match order with
          | Some o -> o
          | None ->
              1 + List.fold_left (fun acc h -> max acc h.order) (-1) t.handlers
        in
        let hid = t.next_hid in
        t.next_hid <- hid + 1;
        let limits = match limits with Some l -> l | None -> Rlimit.zero () in
        let h =
          {
            hid;
            order;
            loaded;
            cred;
            limits;
            payload_words;
            txn_name = Printf.sprintf "%s#%d" t.ename hid;
            worker_name = Printf.sprintf "%s-worker-%d" t.ename hid;
          }
        in
        t.handlers <- sort_handlers (h :: t.handlers);
        Kernel.audit_event kernel
          (Audit.Handler_added
             { point = t.ename; handler = hid; user = cred.Cred.user });
        Ok hid

let remove_handler t kernel hid =
  t.handlers <-
    List.filter
      (fun h ->
        if h.hid = hid then begin
          Linker.unload kernel h.loaded;
          false
        end
        else true)
      t.handlers

(* The handler's result is r0; commit does not change it. *)
let result_reg cpu = Ok (Cpu.reg cpu 0)

let run_handler t kernel h payload =
  let len = min (Array.length payload) h.payload_words in
  let seg = h.loaded.Linker.seg in
  let setup cpu =
    Mem.blit_in ~len kernel.Kernel.mem seg.Mem.base payload;
    Cpu.set_reg cpu 1 seg.Mem.base;
    Cpu.set_reg cpu 2 len
  in
  (* workers are fresh processes, so there is normally no enclosing
     transaction; [invoke] picks one up if an in-kernel caller dispatched
     inline *)
  match
    Wrapper.invoke kernel h.loaded ~name:h.txn_name ~cred:h.cred
      ~limits:h.limits ~budget:t.budget ~setup ~check:result_reg ()
  with
  | Ok r0 -> t.last_results <- (h.hid, r0) :: t.last_results
  | Error reason ->
      t.n_failures <- t.n_failures + 1;
      Kernel.audit_event kernel
        (Audit.Handler_failed { point = t.ename; handler = h.hid; reason });
      remove_handler t kernel h.hid

let dispatch t kernel ~payload =
  t.n_events <- t.n_events + 1;
  t.last_results <- [];
  List.iter
    (fun h ->
      (* pinned from spawn, not from [invoke]: a removal between the two
         must not free the segment the worker is about to run in *)
      Linker.pin h.loaded;
      ignore
        (Engine.spawn kernel.Kernel.engine ~name:h.worker_name (fun () ->
             run_handler t kernel h payload;
             Linker.unpin kernel h.loaded)))
    t.handlers
