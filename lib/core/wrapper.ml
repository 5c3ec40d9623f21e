module Cpu = Vino_vm.Cpu
module Mem = Vino_vm.Mem
module Engine = Vino_sim.Engine
module Tick = Vino_sim.Tick
module Txn = Vino_txn.Txn
module Trace = Vino_trace.Trace
module Span = Vino_trace.Span
module Profile = Vino_trace.Profile

(* Counter handles, interned once at load: the emit sites below
   bump a flat per-sink array instead of hashing a dotted name. *)
let h_kflow_checks = Vino_trace.Counters.handle "kflow.checks"
let h_kflow_violations = Vino_trace.Counters.handle "kflow.violations"
let h_sfi_sandbox_cycles = Vino_trace.Counters.handle "sfi.sandbox_cycles"
let h_sfi_checkcall_cycles = Vino_trace.Counters.handle "sfi.checkcall_cycles"

let env ?flow kernel ~txn ~cred ~limits =
  let registry = kernel.Kernel.registry in
  let dispatch id cpu =
    match Kcall.find registry id with
    | None -> Cpu.K_fault (Cpu.Bad_kcall id)
    | Some _ when not (Kcall.callable registry id) ->
        Cpu.K_fault (Cpu.Bad_kcall id)
    | Some fn -> (
        (* A kernel function that raises on a graft's argument aborts the
           graft (Rule 9), not the calling kernel thread. A kill, and a
           fault the run loop maps to [Faulted], still propagate. *)
        match fn.Kcall.impl { Kcall.cpu; txn; cred; limits } with
        | status -> status
        | exception ((Engine.Stopped | Cpu.Fault_exn _ | Mem.Fault _) as e) ->
            raise e
        | exception e ->
            Cpu.K_abort
              (Printf.sprintf "%s: %s" fn.Kcall.name (Printexc.to_string e)))
  in
  let kcall =
    match flow with
    | None -> dispatch
    | Some table ->
        (* Kcall-flow integrity: one row/bit test per dispatch against the
           static transition table, before the target runs. The check and
           its cycle charge exist only when enforcement is on, so every
           other configuration's cycle counts are untouched. *)
        let last = ref Vino_verify.Kflow.entry in
        let name id =
          if id = Vino_verify.Kflow.entry then "<entry>"
          else
            match Kcall.find registry id with
            | Some fn -> fn.Kcall.name
            | None -> Printf.sprintf "#%d" id
        in
        fun id cpu ->
          Cpu.charge cpu kernel.Kernel.vm_costs.Vino_vm.Costs.flow_check;
          Trace.incr_h h_kflow_checks;
          if Vino_verify.Kflow.permits table ~last:!last ~next:id then begin
            last := id;
            dispatch id cpu
          end
          else begin
            Trace.incr_h h_kflow_violations;
            let point =
              match txn with Some t -> Txn.name t | None -> "<no-txn>"
            in
            let last = name !last and next = name id in
            Kernel.audit_event kernel
              (Audit.Flow_violation { point; last; next });
            Cpu.K_abort
              (Printf.sprintf "kcall-flow violation: %s after %s" next last)
          end
  in
  let call_ok id = Kcall.callable registry id in
  let poll =
    match txn with Some t -> Txn.poll t | None -> fun () -> None
  in
  { Cpu.kcall; call_ok; poll }

let default_slice = 10_000
let default_budget = 1_000_000_000

let exec kernel (loaded : Linker.loaded) ~txn ~cred ~limits
    ?(slice = default_slice) ?(budget = default_budget) ~setup () =
  let cpu =
    Cpu.make ~mem:kernel.Kernel.mem ~seg:loaded.seg
      ~costs:kernel.Kernel.vm_costs ()
  in
  setup cpu;
  let flow =
    match kernel.Kernel.flow_check with
    | Kernel.Flow_off -> None
    | Flow_own -> Some loaded.flow
    | Flow_pinned t -> Some t
  in
  let e = env ?flow kernel ~txn:(Some txn) ~cred ~limits in
  (* Each slice resumes from the cpu's saved pc, so the step function must
     handle mid-block entry — {!Vino_vm.Jit.run} does. *)
  let step =
    match kernel.Kernel.exec_mode with
    | Vino_vm.Jit.Translated -> fun () -> Vino_vm.Jit.run e cpu loaded.trans
    | Vino_vm.Jit.Interp -> fun () -> Cpu.run e cpu loaded.code
  in
  let synced = ref 0 in
  let sync () =
    let consumed = Cpu.cycles cpu in
    if consumed > !synced then begin
      Engine.delay (consumed - !synced);
      synced := consumed
    end
  in
  let rec go () =
    Cpu.refuel cpu slice;
    let outcome = step () in
    sync ();
    match outcome with
    | Cpu.Out_of_fuel ->
        if Cpu.cycles cpu >= budget then (cpu, Cpu.Out_of_fuel)
        else begin
          (* end of a preemption slice: honour any pending abort *)
          match Txn.poll txn () with
          | Some reason -> (cpu, Cpu.Aborted reason)
          | None -> go ()
        end
    | (Cpu.Halted | Cpu.Faulted _ | Cpu.Aborted _) as final -> (cpu, final)
  in
  (* expose this invocation's transaction so graft points reached
     indirectly (through kernel calls) nest under it (§3.1) *)
  let ((cpu, _) as result) = Txn.with_current kernel.Kernel.txn_mgr txn go in
  if Trace.enabled () then begin
    let now = Engine.now kernel.Kernel.engine in
    let label = Txn.name txn in
    let sb = Cpu.sandbox_cycles cpu and cc = Cpu.checkcall_cycles cpu in
    if sb > 0 then begin
      Trace.add_h h_sfi_sandbox_cycles sb;
      Trace.span Span.Sfi_sandbox ~label ~start:(now - sb) ~dur:sb
    end;
    if cc > 0 then begin
      Trace.add_h h_sfi_checkcall_cycles cc;
      Trace.span Span.Sfi_checkcall ~label ~start:(now - cc) ~dur:cc
    end;
    if sb + cc > 0 then
      Trace.charge
        ~ctx:(Engine.proc_id (Engine.self kernel.Kernel.engine))
        Profile.Sandbox (sb + cc)
  end;
  result

(* The invocation owns its transaction frame outright: nothing holds onto
   [txn] once it is resolved, so it goes back to the manager's arena. *)
let release kernel loaded txn =
  Txn.recycle txn;
  Linker.unpin kernel loaded

let invoke kernel loaded ~name ~cred ~limits ?budget ?watchdog ?check_cost
    ~setup ~check () =
  let mgr = kernel.Kernel.txn_mgr in
  Linker.pin loaded;
  (* nest under the invoking graft's transaction, if any: "any graft can
     abort without aborting its calling graft" (§3.1) *)
  let txn =
    match Txn.begin_ mgr ?parent:(Txn.current mgr) ~name () with
    | txn -> txn
    | exception Engine.Stopped ->
        (* killed before the transaction existed: only the pin to undo *)
        Linker.unpin kernel loaded;
        raise Engine.Stopped
  in
  let cancel_watchdog =
    match watchdog with
    | None -> fun () -> ()
    | Some after ->
        Tick.arm kernel.Kernel.wheel ~after (fun () ->
            Txn.request_abort txn
              (Printf.sprintf "graft point %S: watchdog expired" name))
  in
  match
    match exec kernel loaded ~txn ~cred ~limits ?budget ~setup () with
    | exception e ->
        cancel_watchdog ();
        raise e
    | cpu, outcome ->
        cancel_watchdog ();
        let result =
          match outcome with
          | Cpu.Halted -> (
              Option.iter Engine.delay check_cost;
              match check cpu with
              | Ok _ as ok -> (
                  match Txn.commit txn with
                  | Ok () -> ok
                  | Error reason -> Error reason)
              | Error _ as failed -> failed)
          | Cpu.Faulted f -> Error (Format.asprintf "%a" Cpu.pp_fault f)
          | Cpu.Aborted reason -> Error reason
          | Cpu.Out_of_fuel -> Error "CPU budget exhausted"
        in
        (match result with
        | Error reason when Txn.is_active txn -> Txn.abort txn ~reason
        | Ok _ | Error _ -> ());
        result
  with
  | result ->
      release kernel loaded txn;
      result
  | exception Engine.Stopped ->
      (* The calling process was killed. It cannot resolve the
         transaction itself: resolving delays, and a delay in a killed
         process raises [Stopped] again. A fresh process settles the
         transaction (a commit the kill interrupted is finished, anything
         else still active is aborted), recycles it and unpins the
         graft. *)
      let (_ : Engine.proc) =
        Engine.spawn kernel.Kernel.engine ~name:(name ^ ":reaper")
          (fun () ->
            Txn.settle txn ~reason:"invoking process killed";
            release kernel loaded txn)
      in
      raise Engine.Stopped
