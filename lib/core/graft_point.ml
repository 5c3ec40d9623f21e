module Cpu = Vino_vm.Cpu
module Mem = Vino_vm.Mem
module Engine = Vino_sim.Engine
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
    ?(check_cost = Vino_txn.Tcosts.us 2.) ?(budget = Wrapper.default_budget)
    ~default ~setup ~read_result () =
  {
    gname = name;
    grestricted = restricted;
    watchdog;
    indirection_cost;
    check_cost;
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
      let result =
        Wrapper.invoke kernel g.loaded ~name:t.gname ~cred:g.cred
          ~limits:g.limits ~budget:t.budget ?watchdog:t.watchdog
          ~check_cost:t.check_cost
          ~setup:(fun cpu -> t.setup cpu arg)
          ~check:(fun cpu ->
            match t.read_result cpu arg with
            | Ok _ as ok -> ok
            | Error why ->
                Error (Printf.sprintf "result validation failed: %s" why))
          ()
      in
      (* Close this invocation's profiler frame once the transaction is
         resolved, before any kernel fallback code — the default path is
         not graft time. *)
      if Trace.enabled () then begin
        let now = Engine.now kernel.Kernel.engine in
        Trace.pop_frame ~ctx:(trace_ctx ()) ~now;
        Trace.span Span.Graft_invoke ~label:t.gname ~start:inv_start
          ~dur:(now - inv_start)
      end;
      match result with
      | Ok value -> value
      | Error reason ->
          fail t kernel reason;
          t.default arg
