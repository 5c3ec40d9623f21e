module Cpu = Vino_vm.Cpu
module Mem = Vino_vm.Mem
module Engine = Vino_sim.Engine
module Tick = Vino_sim.Tick
module Txn = Vino_txn.Txn
module Rlimit = Vino_txn.Rlimit
module Image = Vino_misfit.Image
module Trace = Vino_trace.Trace
module Span = Vino_trace.Span

(* Counter handles, interned once at load: the emit sites below
   bump a flat per-sink array instead of hashing a dotted name. *)
let h_graft_invocations = Vino_trace.Counters.handle "graft.invocations"
let h_graft_runs = Vino_trace.Counters.handle "graft.runs"

let trace_ctx () = Engine.proc_id (Engine.self ())

type grafted = {
  loaded : Linker.loaded;
  cred : Cred.t;
  limits : Rlimit.t;
  shared_words : int;
}

type ('a, 'b) t = {
  gname : string;
  grestricted : bool;
  watchdog : int option;
  indirection_cost : int;
  check_cost : int;
  slice : int;
  budget : int;
  default : 'a -> 'b;
  setup : Cpu.t -> 'a -> unit;
  read_result : Cpu.t -> 'a -> ('b, string) result;
  mutable graft : grafted option;
  mutable n_invocations : int;
  mutable n_graft_runs : int;
  mutable n_failures : int;
  mutable failure : string option;
}

let create ~name ?(restricted = false) ?watchdog
    ?(indirection_cost = Vino_txn.Tcosts.us 1.)
    ?(check_cost = Vino_txn.Tcosts.us 2.) ?(slice = Wrapper.default_slice)
    ?(budget = Wrapper.default_budget) ~default ~setup ~read_result () =
  {
    gname = name;
    grestricted = restricted;
    watchdog;
    indirection_cost;
    check_cost;
    slice;
    budget;
    default;
    setup;
    read_result;
    graft = None;
    n_invocations = 0;
    n_graft_runs = 0;
    n_failures = 0;
    failure = None;
  }

let saver t () =
  let graft = t.graft
  and n_invocations = t.n_invocations
  and n_graft_runs = t.n_graft_runs
  and n_failures = t.n_failures
  and failure = t.failure in
  fun () ->
    t.graft <- graft;
    t.n_invocations <- n_invocations;
    t.n_graft_runs <- n_graft_runs;
    t.n_failures <- n_failures;
    t.failure <- failure

let name t = t.gname
let restricted t = t.grestricted
let grafted t = t.graft <> None
let default_fn t = t.default
let invocations t = t.n_invocations
let graft_runs t = t.n_graft_runs
let graft_failures t = t.n_failures
let last_failure t = t.failure

let shared_base t =
  match t.graft with
  | Some g when g.shared_words > 0 -> Some g.loaded.Linker.seg.Mem.base
  | Some _ | None -> None

let segment t =
  match t.graft with Some g -> Some g.loaded.Linker.seg | None -> None

let remove t kernel =
  match t.graft with
  | None -> ()
  | Some g ->
      Linker.unload kernel g.loaded;
      t.graft <- None;
      Kernel.audit_event kernel (Audit.Graft_removed { point = t.gname })

let default_heap_words = 1024
let stack_words = 256

let replace t kernel ~cred ?(shared_words = 0) ?(heap_words = default_heap_words)
    ?limits image =
  if t.grestricted && not (Cred.is_privileged cred) then
    Error
      (Printf.sprintf
         "graft point %S is restricted to privileged users (Rule 5)" t.gname)
  else
    let words = shared_words + heap_words + stack_words in
    match Linker.load kernel ~words image with
    | Error reason as e ->
        Kernel.audit_event kernel
          (Audit.Load_rejected { point = t.gname; reason });
        e
    | Ok loaded ->
        remove t kernel;
        let limits = match limits with Some l -> l | None -> Rlimit.zero () in
        t.graft <- Some { loaded; cred; limits; shared_words };
        Kernel.audit_event kernel
          (Audit.Graft_installed { point = t.gname; user = cred.Cred.user });
        Ok ()

let fail t kernel reason =
  t.n_failures <- t.n_failures + 1;
  t.failure <- Some reason;
  Kernel.audit_event kernel (Audit.Graft_failed { point = t.gname; reason });
  (* "the graft is forcibly removed from the kernel, so that new
     invocations use normal kernel code" (§3.6) *)
  remove t kernel

let invoke t kernel ~cred:_ arg =
  t.n_invocations <- t.n_invocations + 1;
  Engine.delay t.indirection_cost;
  if Trace.enabled () then begin
    Trace.incr_h h_graft_invocations;
    Trace.span Span.Dispatch ~label:t.gname
      ~start:(Engine.now kernel.Kernel.engine - t.indirection_cost)
      ~dur:t.indirection_cost
  end;
  match t.graft with
  | None -> t.default arg
  | Some g ->
      t.n_graft_runs <- t.n_graft_runs + 1;
      let inv_start = Engine.now kernel.Kernel.engine in
      if Trace.enabled () then begin
        Trace.incr_h h_graft_runs;
        Trace.push_frame ~ctx:(trace_ctx ()) ~point:t.gname ~now:inv_start
      end;
      (* Close this invocation's profiler frame. Called exactly once per
         run, after the transaction is resolved but before any kernel
         fallback code — the default path is not graft time. *)
      let finish () =
        if Trace.enabled () then begin
          let now = Engine.now kernel.Kernel.engine in
          Trace.pop_frame ~ctx:(trace_ctx ()) ~now;
          Trace.span Span.Graft_invoke ~label:t.gname ~start:inv_start
            ~dur:(now - inv_start)
        end
      in
      (* nest under the invoking graft's transaction, if any: "any graft
         can abort without aborting its calling graft" (§3.1) *)
      let parent = Txn.current kernel.Kernel.txn_mgr in
      let txn = Txn.begin_ kernel.Kernel.txn_mgr ?parent ~name:t.gname () in
      let cancel_watchdog =
        match t.watchdog with
        | None -> fun () -> ()
        | Some w ->
            Tick.arm kernel.Kernel.wheel ~after:w (fun () ->
                Txn.request_abort txn
                  (Printf.sprintf "graft point %S: watchdog expired" t.gname))
      in
      let cpu, outcome =
        Wrapper.exec kernel ~txn ~cred:g.cred ~limits:g.limits
          ~seg:g.loaded.Linker.seg ~code:g.loaded.Linker.code
          ~flow:g.loaded.Linker.flow ~trans:g.loaded.Linker.trans
          ~slice:t.slice ~budget:t.budget
          ~setup:(fun cpu -> t.setup cpu arg)
          ()
      in
      cancel_watchdog ();
      let abandon reason =
        if Txn.is_active txn then Txn.abort txn ~reason;
        (* this invocation owns the frame outright: nothing below holds
           onto [txn], so its frame goes back to the manager's arena *)
        Txn.recycle txn;
        finish ();
        fail t kernel reason;
        t.default arg
      in
      (match outcome with
      | Cpu.Halted -> (
          Engine.delay t.check_cost;
          match t.read_result cpu arg with
          | Ok result -> (
              match Txn.commit txn with
              | Ok () ->
                  Txn.recycle txn;
                  finish ();
                  result
              | Error reason ->
                  Txn.recycle txn;
                  finish ();
                  fail t kernel reason;
                  t.default arg)
          | Error why ->
              abandon (Printf.sprintf "result validation failed: %s" why))
      | Cpu.Faulted f -> abandon (Format.asprintf "%a" Cpu.pp_fault f)
      | Cpu.Aborted reason -> abandon reason
      | Cpu.Out_of_fuel -> abandon "CPU budget exhausted")
