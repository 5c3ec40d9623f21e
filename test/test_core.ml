(* Integration tests for the grafting core: the install → invoke →
   misbehave → recover lifecycle of Table 1's rules. *)

module Asm = Vino_vm.Asm
module Insn = Vino_vm.Insn
module Cpu = Vino_vm.Cpu
module Mem = Vino_vm.Mem
module Engine = Vino_sim.Engine
module Txn = Vino_txn.Txn
module Rlimit = Vino_txn.Rlimit
module Kernel = Vino_core.Kernel
module Kcall = Vino_core.Kcall
module Graft_point = Vino_core.Graft_point
module Event_point = Vino_core.Event_point
module Namespace = Vino_core.Namespace
module Cred = Vino_core.Cred

(* A kernel fixture with a mutable counter guarded by an accessor function
   (with undo), an allocator function governed by resource limits, and two
   non-callable functions (private data / unrecoverable action). *)
type fixture = {
  kernel : Kernel.t;
  counter : int ref;
  secret_id : int;
  adder : (int, int) Graft_point.t;
}

let make_fixture ?watchdog ?budget () =
  let kernel = Kernel.create ~mem_words:(1 lsl 16) ~tick:1_000 () in
  let counter = ref 0 in
  let (_ : Kcall.fn) =
    Kernel.register_kcall kernel ~name:"counter.incr" (fun ctx ->
        let old = !counter in
        (match ctx.Kcall.txn with
        | Some txn ->
            Txn.push_undo txn ~label:"counter.restore" (fun () ->
                counter := old)
        | None -> ());
        counter := old + Kcall.arg ctx.Kcall.cpu 0;
        Kcall.return ctx.Kcall.cpu !counter;
        Kcall.ok)
  in
  let (_ : Kcall.fn) =
    Kernel.register_kcall kernel ~name:"mem.alloc" (fun ctx ->
        let words = Kcall.arg ctx.Kcall.cpu 0 in
        match Rlimit.request ctx.Kcall.limits Rlimit.Memory_words words with
        | Error `Denied ->
            Kcall.return ctx.Kcall.cpu 0;
            Kcall.ok
        | Ok () ->
            (match ctx.Kcall.txn with
            | Some txn ->
                Txn.push_undo txn ~label:"mem.release" (fun () ->
                    Rlimit.release ctx.Kcall.limits Rlimit.Memory_words words)
            | None -> ());
            Kcall.return ctx.Kcall.cpu 1;
            Kcall.ok)
  in
  let secret =
    Kernel.register_kcall kernel ~name:"secret.read" ~callable:false
      (fun ctx ->
        Kcall.return ctx.Kcall.cpu 0xC0FFEE;
        Kcall.ok)
  in
  let (_ : Kcall.fn) =
    Kernel.register_kcall kernel ~name:"sys.shutdown" ~callable:false
      (fun _ -> Kcall.abort "shutdown attempted")
  in
  let adder =
    Graft_point.create ~name:"adder.compute" ?watchdog ?budget
      ~default:(fun x -> x + 1)
      ~setup:(fun cpu x -> Cpu.set_reg cpu 1 x)
      ~read_result:(fun cpu _ ->
        let v = Cpu.reg cpu 0 in
        if v >= 0 && v < 1000 then Ok v else Error "result out of range")
      ()
  in
  { kernel; counter; secret_id = secret.Kcall.id; adder }

let seal_exn kernel items =
  match Kernel.seal kernel (Asm.assemble_exn items) with
  | Ok image -> image
  | Error e -> Alcotest.fail e

let in_kernel f =
  let fx = make_fixture () in
  let result = ref None in
  ignore
    (Engine.spawn fx.kernel.Kernel.engine ~name:"test" (fun () ->
         result := Some (f fx)));
  Kernel.run fx.kernel;
  (match Engine.failures fx.kernel.Kernel.engine with
  | [] -> ()
  | (name, exn) :: _ ->
      Alcotest.failf "process %s crashed: %s" name (Printexc.to_string exn));
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "test body did not finish"

let user _fx = Cred.user "app" ~limits:(Rlimit.unlimited ())
let install_exn fx ?shared_words ?limits image =
  match
    Graft_point.replace fx.adder fx.kernel ~cred:(user fx) ?shared_words
      ?limits image
  with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* r0 <- r1 * 2 *)
let doubler_graft : Asm.item list =
  [ Alu (Insn.Add, Asm.r0, Asm.r1, Asm.r1); Ret ]

let test_default_without_graft () =
  in_kernel (fun fx ->
      let v = Graft_point.invoke fx.adder fx.kernel ~cred:(user fx) 5 in
      Alcotest.(check int) "default ran" 6 v;
      Alcotest.(check bool) "not grafted" false (Graft_point.grafted fx.adder))

let test_graft_replaces_function () =
  in_kernel (fun fx ->
      install_exn fx (seal_exn fx.kernel doubler_graft);
      let v = Graft_point.invoke fx.adder fx.kernel ~cred:(user fx) 21 in
      Alcotest.(check int) "graft ran" 42 v;
      Alcotest.(check int) "one graft run" 1 (Graft_point.graft_runs fx.adder);
      Alcotest.(check bool) "still installed" true
        (Graft_point.grafted fx.adder);
      (* a transaction was begun and committed around the invocation *)
      Alcotest.(check int) "one commit" 1 (Txn.commits fx.kernel.Kernel.txn_mgr))

let test_unsigned_code_rejected () =
  in_kernel (fun fx ->
      let obj = Asm.assemble_exn doubler_graft in
      let image = Vino_misfit.Image.seal_unsafe ~key:"wrong-key" obj in
      match Graft_point.replace fx.adder fx.kernel ~cred:(user fx) image with
      | Error msg ->
          Alcotest.(check bool) "mentions signature" true
            (String.length msg > 0)
      | Ok () -> Alcotest.fail "unsigned graft was loaded (Rule 6)")

let test_tampered_code_rejected () =
  in_kernel (fun fx ->
      let image = Vino_misfit.Image.tamper (seal_exn fx.kernel doubler_graft) in
      match Graft_point.replace fx.adder fx.kernel ~cred:(user fx) image with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "tampered graft was loaded (Rule 6)")

let test_linker_rejects_non_callable () =
  in_kernel (fun fx ->
      let image =
        seal_exn fx.kernel [ Kcall "secret.read"; Ret ]
      in
      (match Graft_point.replace fx.adder fx.kernel ~cred:(user fx) image with
      | Error msg ->
          Alcotest.(check bool) "names the function" true
            (String.length msg > 0)
      | Ok () -> Alcotest.fail "call to private-data function linked (Rule 4)");
      let image2 = seal_exn fx.kernel [ Kcall "sys.shutdown"; Ret ] in
      (match Graft_point.replace fx.adder fx.kernel ~cred:(user fx) image2 with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "call to shutdown linked (Rule 4)");
      let image3 = seal_exn fx.kernel [ Kcall "no.such.fn"; Ret ] in
      match Graft_point.replace fx.adder fx.kernel ~cred:(user fx) image3 with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "unresolved function linked (Rule 7)")

let test_indirect_call_blocked_at_runtime () =
  in_kernel (fun fx ->
      (* launder the secret function's id through memory so neither the
         linker nor the static verifier can see it (a constant id would be
         rejected at link time): Checkcall must stop it at run time. *)
      let image =
        seal_exn fx.kernel
          [
            Li (Asm.r5, fx.secret_id);
            Li (Asm.r6, 0);
            St (Asm.r5, Asm.r6, 0);
            Ld (Asm.r5, Asm.r6, 0);
            Kcallr Asm.r5;
            Ret;
          ]
      in
      install_exn fx image;
      let v = Graft_point.invoke fx.adder fx.kernel ~cred:(user fx) 7 in
      Alcotest.(check int) "fell back to default" 8 v;
      Alcotest.(check bool) "graft removed after violation" false
        (Graft_point.grafted fx.adder);
      Alcotest.(check int) "recorded failure" 1
        (Graft_point.graft_failures fx.adder))

let test_wild_store_confined_and_harmless () =
  in_kernel (fun fx ->
      (* store 0xDEAD at kernel word 3, then return r1*2: with SFI this is
         confined to the segment and the graft completes normally. *)
      let image =
        seal_exn fx.kernel
          [
            Li (Asm.r5, 3);
            Li (Asm.r6, 0xDEAD);
            St (Asm.r6, Asm.r5, 0);
            Alu (Insn.Add, Asm.r0, Asm.r1, Asm.r1);
            Ret;
          ]
      in
      install_exn fx image;
      let v = Graft_point.invoke fx.adder fx.kernel ~cred:(user fx) 10 in
      Alcotest.(check int) "graft result" 20 v;
      Alcotest.(check int) "kernel word 3 untouched (Rule 3)" 0
        (Mem.load fx.kernel.Kernel.mem 3))

let test_infinite_loop_cut_off_and_undone () =
  let fx = make_fixture ~budget:200_000 () in
  let result = ref None in
  ignore
    (Engine.spawn fx.kernel.Kernel.engine (fun () ->
         let image =
           seal_exn fx.kernel
             [
               Li (Asm.r1, 1);
               Kcall "counter.incr";
               Asm.Label "spin";
               Jmp "spin";
             ]
         in
         install_exn fx image;
         result :=
           Some (Graft_point.invoke fx.adder fx.kernel ~cred:(user fx) 3)));
  Kernel.run fx.kernel;
  Alcotest.(check (option int)) "default result after cut-off" (Some 4)
    !result;
  Alcotest.(check int) "counter change rolled back (Rule 9)" 0 !(fx.counter);
  Alcotest.(check bool) "graft removed" false (Graft_point.grafted fx.adder);
  Alcotest.(check int) "abort recorded" 1 (Txn.aborts fx.kernel.Kernel.txn_mgr)

let test_fault_rolls_back_kernel_state () =
  in_kernel (fun fx ->
      (* increment the counter through the accessor, then divide by zero *)
      let image =
        seal_exn fx.kernel
          [
            Li (Asm.r1, 5);
            Kcall "counter.incr";
            Li (Asm.r2, 0);
            Alu (Insn.Div, Asm.r0, Asm.r1, Asm.r2);
            Ret;
          ]
      in
      install_exn fx image;
      let v = Graft_point.invoke fx.adder fx.kernel ~cred:(user fx) 9 in
      Alcotest.(check int) "default result" 10 v;
      Alcotest.(check int) "counter restored by undo (Rule 9)" 0 !(fx.counter))

let test_successful_graft_commits_kernel_state () =
  in_kernel (fun fx ->
      let image =
        seal_exn fx.kernel
          [ Li (Asm.r1, 5); Kcall "counter.incr"; Li (Asm.r0, 5); Ret ]
      in
      install_exn fx image;
      let v = Graft_point.invoke fx.adder fx.kernel ~cred:(user fx) 0 in
      Alcotest.(check int) "graft result" 5 v;
      Alcotest.(check int) "committed counter persists" 5 !(fx.counter))

let test_result_validation_failure () =
  in_kernel (fun fx ->
      let image = seal_exn fx.kernel [ Li (Asm.r0, 9999); Ret ] in
      install_exn fx image;
      let v = Graft_point.invoke fx.adder fx.kernel ~cred:(user fx) 2 in
      Alcotest.(check int) "default used" 3 v;
      Alcotest.(check bool) "graft removed" false
        (Graft_point.grafted fx.adder);
      match Graft_point.last_failure fx.adder with
      | Some msg ->
          Alcotest.(check bool) "mentions validation" true
            (String.length msg > 0)
      | None -> Alcotest.fail "failure not recorded")

let test_restricted_point_requires_privilege () =
  let kernel = Kernel.create ~mem_words:(1 lsl 16) () in
  let point =
    Graft_point.create ~name:"global.scheduler" ~restricted:true
      ~default:(fun () -> 0)
      ~setup:(fun _ () -> ())
      ~read_result:(fun cpu () -> Ok (Cpu.reg cpu 0))
      ()
  in
  let image =
    match Kernel.seal kernel (Asm.assemble_exn [ Li (Asm.r0, 0); Ret ]) with
    | Ok i -> i
    | Error e -> Alcotest.fail e
  in
  let mallory = Cred.user "mallory" ~limits:(Rlimit.zero ()) in
  (match Graft_point.replace point kernel ~cred:mallory image with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unprivileged user grafted a global policy (Rule 5)");
  match Graft_point.replace point kernel ~cred:Cred.root image with
  | Ok () -> ()
  | Error e -> Alcotest.failf "root should be allowed: %s" e

let test_resource_limits_enforced () =
  in_kernel (fun fx ->
      (* the graft asks for 100 words; returns the allocator's verdict *)
      let image =
        seal_exn fx.kernel [ Li (Asm.r1, 100); Kcall "mem.alloc"; Ret ]
      in
      (* zero limits: denied *)
      install_exn fx ~limits:(Rlimit.zero ()) image;
      let v = Graft_point.invoke fx.adder fx.kernel ~cred:(user fx) 0 in
      Alcotest.(check int) "denied with zero limits" 0 v;
      (* installer transfers headroom: granted *)
      let installer = Rlimit.create ~memory_words:1000 () in
      let graft_limits = Rlimit.zero () in
      (match
         Rlimit.transfer ~src:installer ~dst:graft_limits Rlimit.Memory_words
           500
       with
      | Ok () -> ()
      | Error `Denied -> Alcotest.fail "transfer failed");
      install_exn fx ~limits:graft_limits image;
      let v2 = Graft_point.invoke fx.adder fx.kernel ~cred:(user fx) 0 in
      Alcotest.(check int) "granted after transfer" 1 v2;
      Alcotest.(check int) "usage billed to graft account" 100
        (Rlimit.used graft_limits Rlimit.Memory_words))

let test_watchdog_stops_nonreturning_graft () =
  (* §2.5: the page-daemon scenario — a graft that never returns is timed
     out so the system makes forward progress. *)
  let fx = make_fixture ~watchdog:50_000 () in
  let result = ref None in
  ignore
    (Engine.spawn fx.kernel.Kernel.engine (fun () ->
         let image =
           seal_exn fx.kernel [ Asm.Label "spin"; Jmp "spin" ]
         in
         install_exn fx image;
         result :=
           Some (Graft_point.invoke fx.adder fx.kernel ~cred:(user fx) 1)));
  Kernel.run fx.kernel;
  Alcotest.(check (option int)) "forward progress (Rule 9)" (Some 2) !result;
  match Graft_point.last_failure fx.adder with
  | Some reason ->
      Alcotest.(check bool) "watchdog named" true
        (String.length reason > 0)
  | None -> Alcotest.fail "no failure recorded"

let test_shared_window () =
  in_kernel (fun fx ->
      (* graft reads word 0 of its shared window and returns it *)
      let image =
        seal_exn fx.kernel
          [ Li (Asm.r5, 0); Ld (Asm.r0, Asm.r5, 0); Ret ]
      in
      (* note: address 0 is sandboxed into the segment, landing on the
         shared window base *)
      install_exn fx ~shared_words:16 image;
      (match Graft_point.shared_base fx.adder with
      | Some base -> Mem.store fx.kernel.Kernel.mem base 123
      | None -> Alcotest.fail "no shared window");
      let v = Graft_point.invoke fx.adder fx.kernel ~cred:(user fx) 0 in
      Alcotest.(check int) "graft saw application data" 123 v)

let test_namespace_install_flow () =
  (* Figure 1: look up the graft point by name, then replace. *)
  in_kernel (fun fx ->
      let ns = Namespace.create () in
      Namespace.register ns
        (Namespace.of_function_point fx.adder fx.kernel ());
      Alcotest.(check (list string)) "listed" [ "adder.compute" ]
        (Namespace.names ns);
      match Namespace.lookup ns "adder.compute" with
      | None -> Alcotest.fail "lookup failed"
      | Some handle ->
          (match handle.Namespace.install (user fx)
                   (seal_exn fx.kernel doubler_graft)
           with
          | Ok () -> ()
          | Error e -> Alcotest.fail e);
          Alcotest.(check bool) "grafted via handle" true
            (handle.Namespace.grafted ());
          let v = Graft_point.invoke fx.adder fx.kernel ~cred:(user fx) 8 in
          Alcotest.(check int) "handle-installed graft runs" 16 v;
          handle.Namespace.uninstall ();
          Alcotest.(check bool) "uninstalled" false
            (handle.Namespace.grafted ()))

let test_restricted_event_point () =
  let fx = make_fixture () in
  let ep = Event_point.create ~name:"privileged.events" ~restricted:true () in
  let image = seal_exn fx.kernel [ Asm.Li (Asm.r0, 0); Ret ] in
  (match Event_point.add_handler ep fx.kernel ~cred:(user fx) image with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unprivileged handler accepted on restricted point");
  match Event_point.add_handler ep fx.kernel ~cred:Cred.root image with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "root rejected: %s" e

let test_event_point_handlers_run_in_order () =
  let fx = make_fixture () in
  let ep = Event_point.create ~name:"tcp.port-80" () in
  let handler value =
    (* return the first payload word + value *)
    [
      Asm.Ld (Asm.r3, Asm.r1, 0);
      Alui (Insn.Add, Asm.r0, Asm.r3, value);
      Ret;
    ]
  in
  ignore
    (Engine.spawn fx.kernel.Kernel.engine (fun () ->
         let add order value =
           match
             Event_point.add_handler ep fx.kernel ~cred:(user fx) ~order
               (seal_exn fx.kernel (handler value))
           with
           | Ok hid -> hid
           | Error e -> Alcotest.fail e
         in
         let _h2 = add 2 200 in
         let _h1 = add 1 100 in
         Event_point.dispatch ep fx.kernel ~payload:[| 7 |]));
  Kernel.run fx.kernel;
  Alcotest.(check int) "both handlers survived" 2 (Event_point.handler_count ep);
  Alcotest.(check int) "one event" 1 (Event_point.events_delivered ep);
  let results = Event_point.results ep in
  Alcotest.(check (list int)) "order-respecting results" [ 107; 207 ]
    (List.map snd results)

let test_event_handler_failure_isolated () =
  let fx = make_fixture () in
  let ep = Event_point.create ~name:"udp.port-2049" () in
  ignore
    (Engine.spawn fx.kernel.Kernel.engine (fun () ->
         let good =
           seal_exn fx.kernel [ Asm.Li (Asm.r0, 1); Ret ]
         in
         let bad =
           seal_exn fx.kernel
             [ Asm.Li (Asm.r1, 0); Li (Asm.r2, 1); Alu (Insn.Div, Asm.r0, Asm.r2, Asm.r1); Ret ]
         in
         (match Event_point.add_handler ep fx.kernel ~cred:(user fx) ~order:1 bad with
         | Ok _ -> ()
         | Error e -> Alcotest.fail e);
         (match Event_point.add_handler ep fx.kernel ~cred:(user fx) ~order:2 good with
         | Ok _ -> ()
         | Error e -> Alcotest.fail e);
         Event_point.dispatch ep fx.kernel ~payload:[||]));
  Kernel.run fx.kernel;
  Alcotest.(check int) "bad handler removed (Rule 8)" 1
    (Event_point.handler_count ep);
  Alcotest.(check int) "failure recorded" 1 (Event_point.handler_failures ep);
  Alcotest.(check (list int)) "good handler answered" [ 1 ]
    (List.map snd (Event_point.results ep))

let test_nested_graft_transactions () =
  (* §3.1: "graft functions may indirectly invoke other grafts ... nested
     transactions. In this manner, any graft can abort without aborting
     its calling graft" — and conversely, a nested commit merges into the
     parent, so the child's committed work rolls back if the parent later
     aborts. *)
  let fx = make_fixture () in
  let inner =
    Graft_point.create ~name:"inner.point"
      ~default:(fun () -> 42)
      ~setup:(fun _ () -> ())
      ~read_result:(fun cpu () -> Ok (Cpu.reg cpu 0))
      ()
  in
  (* kernel function that lets a graft invoke the inner point *)
  let (_ : Kcall.fn) =
    Kernel.register_kcall fx.kernel ~name:"inner.run" (fun ctx ->
        Kcall.return ctx.Kcall.cpu
          (Graft_point.invoke inner fx.kernel ~cred:(user fx) ());
        Kcall.ok)
  in
  (* the inner graft mutates kernel state through the accessor, commits *)
  (match
     Graft_point.replace inner fx.kernel ~cred:(user fx)
       (seal_exn fx.kernel
          [
            Li (Asm.r1, 7);
            Kcall "counter.incr";
            Li (Asm.r0, 7);
            Ret;
          ])
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let counter = fx.counter in

  (* case 1: outer invokes inner then commits — state persists *)
  install_exn fx (seal_exn fx.kernel [ Kcall "inner.run"; Ret ]);
  let mgr = fx.kernel.Kernel.txn_mgr in
  let in_proc f =
    let out = ref None in
    ignore
      (Engine.spawn fx.kernel.Kernel.engine (fun () -> out := Some (f ())));
    Kernel.run fx.kernel;
    (match Engine.failures fx.kernel.Kernel.engine with
    | [] -> ()
    | (n, e) :: _ -> Alcotest.failf "%s: %s" n (Printexc.to_string e));
    Option.get !out
  in
  let v = in_proc (fun () -> Graft_point.invoke fx.adder fx.kernel ~cred:(user fx) 0) in
  Alcotest.(check int) "outer returned inner's value" 7 v;
  Alcotest.(check int) "committed through both layers" 7 !counter;
  Alcotest.(check bool) "nested begin happened" true (Txn.begins mgr >= 2);

  (* case 2: inner commits but the outer then crashes — the merged undo
     rolls the inner's work back too *)
  counter := 0;
  install_exn fx
    (seal_exn fx.kernel
       [
         Kcall "inner.run";
         Li (Asm.r2, 0);
         Li (Asm.r3, 1);
         Alu (Insn.Div, Asm.r0, Asm.r3, Asm.r2);
         Ret;
       ]);
  (* inner graft was force-removed? no: inner still installed *)
  Alcotest.(check bool) "inner still grafted" true (Graft_point.grafted inner);
  let v2 = in_proc (fun () -> Graft_point.invoke fx.adder fx.kernel ~cred:(user fx) 4) in
  Alcotest.(check int) "outer fell back to default" 5 v2;
  Alcotest.(check int)
    "inner's committed change rolled back with the outer abort" 0 !counter;
  Alcotest.(check bool) "inner graft survived the outer's crash" true
    (Graft_point.grafted inner);

  (* case 3: the INNER graft crashes — outer proceeds with inner's default *)
  counter := 0;
  (match
     Graft_point.replace inner fx.kernel ~cred:(user fx)
       (seal_exn fx.kernel
          [ Li (Asm.r2, 0); Li (Asm.r3, 1); Alu (Insn.Div, Asm.r0, Asm.r3, Asm.r2); Ret ])
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  install_exn fx (seal_exn fx.kernel [ Kcall "inner.run"; Ret ]);
  let v3 = in_proc (fun () -> Graft_point.invoke fx.adder fx.kernel ~cred:(user fx) 0) in
  Alcotest.(check int) "outer committed with inner's default" 42 v3;
  Alcotest.(check bool) "outer graft survived the inner's abort" true
    (Graft_point.grafted fx.adder)

let test_audit_trail () =
  in_kernel (fun fx ->
      let module Audit = Vino_core.Audit in
      (* rejected load *)
      let bad = Vino_misfit.Image.seal_unsafe ~key:"evil" (Asm.assemble_exn doubler_graft) in
      ignore (Graft_point.replace fx.adder fx.kernel ~cred:(user fx) bad);
      (* successful install, failing run, forcible removal *)
      install_exn fx
        (seal_exn fx.kernel
           [ Li (Asm.r1, 1); Li (Asm.r2, 0); Alu (Insn.Div, Asm.r0, Asm.r1, Asm.r2); Ret ]);
      ignore (Graft_point.invoke fx.adder fx.kernel ~cred:(user fx) 1);
      let kinds =
        List.map
          (fun e ->
            match e.Audit.event with
            | Audit.Load_rejected _ -> "rejected"
            | Audit.Graft_installed _ -> "installed"
            | Audit.Graft_failed _ -> "failed"
            | Audit.Graft_removed _ -> "removed"
            | Audit.Handler_added _ | Audit.Handler_failed _ -> "handler"
            | Audit.Flow_violation _ -> "flow-violation"
            | Audit.Proof_stale _ -> "proof-stale"
            | Audit.Admission_rejected _ -> "admission")
          (Audit.entries fx.kernel.Kernel.audit)
      in
      Alcotest.(check (list string))
        "full lifecycle audited"
        [ "rejected"; "installed"; "failed"; "removed" ]
        kinds;
      Alcotest.(check int) "two failure entries" 2
        (List.length (Audit.failures fx.kernel.Kernel.audit)))

let test_event_payload_truncated_to_window () =
  (* an oversized event payload is clipped to the handler's window; the
     handler still runs and sees the clipped length in r2 *)
  let fx = make_fixture () in
  let ep = Event_point.create ~name:"clip.point" () in
  ignore
    (Engine.spawn fx.kernel.Kernel.engine (fun () ->
         (match
            Event_point.add_handler ep fx.kernel ~cred:(user fx)
              ~payload_words:4
              (seal_exn fx.kernel [ Mov (Asm.r0, Asm.r2); Ret ])
          with
         | Ok _ -> ()
         | Error e -> Alcotest.fail e);
         Event_point.dispatch ep fx.kernel ~payload:(Array.make 100 7)));
  Kernel.run fx.kernel;
  Alcotest.(check (list int)) "clipped length delivered" [ 4 ]
    (List.map snd (Event_point.results ep))

let test_segment_freed_on_remove () =
  in_kernel (fun fx ->
      let free0 = Vino_core.Segalloc.free_words fx.kernel.Kernel.segalloc in
      install_exn fx (seal_exn fx.kernel doubler_graft);
      Alcotest.(check bool) "memory in use" true
        (Vino_core.Segalloc.free_words fx.kernel.Kernel.segalloc < free0);
      Graft_point.remove fx.adder fx.kernel;
      Alcotest.(check int) "memory returned" free0
        (Vino_core.Segalloc.free_words fx.kernel.Kernel.segalloc))

(* Event handlers for the segment-reuse cases below: 16 payload words
   and 64 heap words, so every handler gets a 512-word segment. Handlers
   see their segment base (the payload window) in r1. *)
let add_handler_exn fx ep image =
  match
    Event_point.add_handler ep fx.kernel ~cred:(user fx) ~payload_words:16
      ~heap_words:64 image
  with
  | Ok hid -> hid
  | Error e -> Alcotest.fail e

let bad_word = 0xBAD

(* Stores [bad_word] at word 100 of the segment after spinning [spin]
   iterations; a payload word of 1 divides by zero instead. *)
let storing_handler ~spin ~result : Asm.item list =
  [
    Ld (Asm.r3, Asm.r1, 0);
    Li (Asm.r4, 0);
    Br (Insn.Ne, Asm.r3, Asm.r4, "boom");
    Li (Asm.r5, spin);
    Li (Asm.r6, 0);
    Label "spin";
    Br (Insn.Ge, Asm.r6, Asm.r5, "store");
    Alui (Insn.Add, Asm.r6, Asm.r6, 1);
    Jmp "spin";
    Label "store";
    Li (Asm.r7, bad_word);
    St (Asm.r7, Asm.r1, 100);
    Mov (Asm.r0, result);
    Ret;
    Label "boom";
    Alu (Insn.Div, Asm.r0, Asm.r3, Asm.r4);
    Ret;
  ]

let used_words fx = Vino_core.Segalloc.used_words fx.kernel.Kernel.segalloc

(* A handler removed because one worker faulted keeps its segment until
   its other worker returns: a later handler gets another block, and
   never reads what the running worker stores (Rule 3). *)
let test_removed_handler_segment_outlives_workers () =
  let fx = make_fixture () in
  let ep_a = Event_point.create ~name:"a" () in
  let ep_b = Event_point.create ~name:"b" () in
  let used_at_b_install = ref (-1) and a_handlers = ref (-1) in
  ignore
    (Engine.spawn fx.kernel.Kernel.engine ~name:"app" (fun () ->
         let spinning = storing_handler ~spin:50_000 ~result:Asm.r4 in
         let (_ : int) =
           add_handler_exn fx ep_a (seal_exn fx.kernel spinning)
         in
         Event_point.dispatch ep_a fx.kernel ~payload:[| 0 |];
         Event_point.dispatch ep_a fx.kernel ~payload:[| 1 |];
         Engine.delay 20_000;
         (* the faulting worker has removed the handler; the first one
            is still spinning in the segment *)
         a_handlers := Event_point.handler_count ep_a;
         used_at_b_install := used_words fx;
         let (_ : int) =
           add_handler_exn fx ep_b
             (seal_exn fx.kernel [ Ld (Asm.r0, Asm.r1, 100); Ret ])
         in
         Engine.delay 2_000_000;
         Event_point.dispatch ep_b fx.kernel ~payload:[| 0 |]));
  Kernel.run fx.kernel;
  Alcotest.(check int) "faulting worker removed the handler" 0 !a_handlers;
  Alcotest.(check int) "one handler failure" 1
    (Event_point.handler_failures ep_a);
  Alcotest.(check int) "running worker keeps the segment allocated" 512
    !used_at_b_install;
  Alcotest.(check (list int)) "running worker finished its store" [ 0 ]
    (List.map snd (Event_point.results ep_a));
  Alcotest.(check int) "freed when the last worker returned" 512
    (used_words fx);
  Alcotest.(check (list int)) "new handler reads its own zeroed segment"
    [ 0 ]
    (List.map snd (Event_point.results ep_b))

(* A handler removed after an event is dispatched to it, but before its
   worker starts, still runs that event; its segment must survive until
   the worker exits, so a handler installed meanwhile gets another block
   (Rule 3). *)
let test_removed_handler_segment_outlives_pending_worker () =
  let fx = make_fixture () in
  let ep_a = Event_point.create ~name:"a" () in
  let ep_b = Event_point.create ~name:"b" () in
  let used_at_b_install = ref (-1) in
  ignore
    (Engine.spawn fx.kernel.Kernel.engine ~name:"app" (fun () ->
         let a =
           add_handler_exn fx ep_a
             (seal_exn fx.kernel (storing_handler ~spin:1_000 ~result:Asm.r4))
         in
         Event_point.dispatch ep_a fx.kernel ~payload:[| 0 |];
         Event_point.remove_handler ep_a fx.kernel a;
         used_at_b_install := used_words fx;
         let (_ : int) =
           add_handler_exn fx ep_b
             (seal_exn fx.kernel [ Ld (Asm.r0, Asm.r1, 100); Ret ])
         in
         Engine.delay 1_000_000;
         Event_point.dispatch ep_b fx.kernel ~payload:[| 0 |]));
  Kernel.run fx.kernel;
  Alcotest.(check int) "pending worker keeps the segment allocated" 512
    !used_at_b_install;
  Alcotest.(check (list int)) "pending worker still ran" [ 0 ]
    (List.map snd (Event_point.results ep_a));
  Alcotest.(check int) "freed when the worker exited" 512 (used_words fx);
  Alcotest.(check (list int)) "new handler reads its own zeroed segment"
    [ 0 ]
    (List.map snd (Event_point.results ep_b))

(* A removed handler's block goes to the next handler of the same size
   zeroed: B gets A's block but not A's data (Rule 3). Each handler
   answers r1 plus word 100 of its segment, so B's answer equals A's
   only if B got A's block and read 0 there. *)
let test_freed_segment_zeroed_before_reuse () =
  let fx = make_fixture () in
  let ep_a = Event_point.create ~name:"a" () in
  let ep_b = Event_point.create ~name:"b" () in
  ignore
    (Engine.spawn fx.kernel.Kernel.engine ~name:"app" (fun () ->
         let a =
           add_handler_exn fx ep_a
             (seal_exn fx.kernel (storing_handler ~spin:0 ~result:Asm.r1))
         in
         Event_point.dispatch ep_a fx.kernel ~payload:[| 0 |];
         Engine.delay 100_000;
         Event_point.remove_handler ep_a fx.kernel a;
         let (_ : int) =
           add_handler_exn fx ep_b
             (seal_exn fx.kernel
                [
                  Ld (Asm.r3, Asm.r1, 100);
                  Alu (Insn.Add, Asm.r0, Asm.r1, Asm.r3);
                  Ret;
                ])
         in
         Event_point.dispatch ep_b fx.kernel ~payload:[| 0 |]));
  Kernel.run fx.kernel;
  match (Event_point.results ep_a, Event_point.results ep_b) with
  | [ (_, a_base) ], [ (_, b_answer) ] ->
      Alcotest.(check int) "B reads zero in A's block" a_base b_answer
  | _ -> Alcotest.fail "each handler should answer once"

let test_cred_and_namespace_basics () =
  Alcotest.(check bool) "root is privileged" true (Cred.is_privileged Cred.root);
  let u = Cred.user "u" ~limits:(Rlimit.zero ()) in
  Alcotest.(check bool) "users are not" false (Cred.is_privileged u);
  Alcotest.(check bool) "uids are fresh" true
    ((Cred.user "a" ~limits:(Rlimit.zero ())).Cred.uid
    <> (Cred.user "b" ~limits:(Rlimit.zero ())).Cred.uid);
  ignore (Format.asprintf "%a" Cred.pp u);
  let ns = Namespace.create () in
  let fx = make_fixture () in
  let h = Namespace.of_function_point fx.adder fx.kernel () in
  Namespace.register ns h;
  (match Namespace.register ns h with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate registration accepted");
  Namespace.unregister ns "adder.compute";
  Alcotest.(check (list string)) "unregistered" [] (Namespace.names ns)

(* ---- stale safety proofs (proof-carrying translation) ---- *)

let seal_verified_exn kernel items verify =
  match Kernel.seal ~verify kernel (Asm.assemble_exn items) with
  | Ok image -> image
  | Error e -> Alcotest.fail e

let proof_stale_audited kernel =
  List.exists
    (fun e ->
      match e.Vino_core.Audit.event with
      | Vino_core.Audit.Proof_stale _ -> true
      | _ -> false)
    (Vino_core.Audit.entries kernel.Kernel.audit)

let check_stale_error e =
  Alcotest.(check bool)
    (Printf.sprintf "error %S names the stale proof" e)
    true
    (String.length e >= 5 && String.sub e 0 5 = "stale")

(* An indirect call whose id the seal-time verifier proved constant and
   callable from an entry fact (r1 = 0, counter.incr) — so the
   [Checkcall] was elided and the proof records the callable-set
   assumption. Load-time static analysis has no entry facts and cannot
   re-derive the constant, so only the proof revalidation can notice the
   function was pulled off the graft-callable list after sealing. *)
let test_stale_proof_callable_rejected () =
  let fx = make_fixture () in
  let verify =
    Vino_verify.Verify.config
      ~entry:[ (1, Vino_verify.Verify.arg_at_most 0) ]
      ~words:64 ()
  in
  let image =
    seal_verified_exn fx.kernel [ Kcallr Asm.r1; Ret ] verify
  in
  let proof = Option.get image.Vino_misfit.Image.proof in
  Alcotest.(check (list int))
    "proof assumes id 0 is callable" [ 0 ]
    (Vino_verify.Proof.calls proof);
  Alcotest.(check bool) "checkcall elided from the sealed stream" false
    (Array.exists
       (function Insn.Checkcall _ -> true | _ -> false)
       image.Vino_misfit.Image.code);
  (match Vino_core.Linker.load fx.kernel ~words:64 image with
  | Ok loaded -> Vino_core.Linker.unload fx.kernel loaded
  | Error e -> Alcotest.failf "fresh proof rejected: %s" e);
  Kernel.set_callable fx.kernel 0 false;
  (match Vino_core.Linker.load fx.kernel ~words:64 image with
  | Ok _ -> Alcotest.fail "stale proof accepted after set_callable"
  | Error e -> check_stale_error e);
  Alcotest.(check bool) "Proof_stale audited" true
    (proof_stale_audited fx.kernel);
  (* restoring the function makes the same image loadable again *)
  Kernel.set_callable fx.kernel 0 true;
  match Vino_core.Linker.load fx.kernel ~words:64 image with
  | Ok loaded -> Vino_core.Linker.unload fx.kernel loaded
  | Error e -> Alcotest.failf "restored callable still rejected: %s" e

(* A proof discharged against a 1024-word segment must not license
   check elision in a 64-word one. *)
let test_stale_proof_words_rejected () =
  let fx = make_fixture () in
  let verify =
    Vino_verify.Verify.config
      ~entry:[ (1, Vino_verify.Verify.seg_window ()) ]
      ~words:1024 ()
  in
  let image =
    seal_verified_exn fx.kernel [ Ld (Asm.r2, Asm.r1, 0); Ret ] verify
  in
  Alcotest.(check int) "proof assumes 1024 words" 1024
    (Vino_verify.Proof.words (Option.get image.Vino_misfit.Image.proof));
  Alcotest.(check bool) "sandbox elided from the sealed stream" false
    (Array.exists
       (function Insn.Sandbox _ -> true | _ -> false)
       image.Vino_misfit.Image.code);
  (match Vino_core.Linker.load fx.kernel ~words:1024 image with
  | Ok loaded -> Vino_core.Linker.unload fx.kernel loaded
  | Error e -> Alcotest.failf "matching segment rejected: %s" e);
  (match Vino_core.Linker.load fx.kernel ~words:64 image with
  | Ok _ -> Alcotest.fail "undersized segment accepted against the proof"
  | Error e -> check_stale_error e);
  Alcotest.(check bool) "Proof_stale audited" true
    (proof_stale_audited fx.kernel)

let test_audit_pp_total () =
  let a = Vino_core.Audit.create () in
  Vino_core.Audit.record a ~now_us:1.
    (Vino_core.Audit.Load_rejected { point = "p"; reason = "r" });
  Vino_core.Audit.record a ~now_us:2.
    (Vino_core.Audit.Graft_installed { point = "p"; user = "u" });
  Vino_core.Audit.record a ~now_us:3.
    (Vino_core.Audit.Graft_failed { point = "p"; reason = "r" });
  Vino_core.Audit.record a ~now_us:4.
    (Vino_core.Audit.Graft_removed { point = "p" });
  Vino_core.Audit.record a ~now_us:5.
    (Vino_core.Audit.Handler_added { point = "p"; handler = 1; user = "u" });
  Vino_core.Audit.record a ~now_us:6.
    (Vino_core.Audit.Handler_failed { point = "p"; handler = 1; reason = "r" });
  Vino_core.Audit.record a ~now_us:7.
    (Vino_core.Audit.Proof_stale { point = "p"; reason = "r" });
  Alcotest.(check int) "count" 7 (Vino_core.Audit.count a);
  Alcotest.(check int) "failures" 4
    (List.length (Vino_core.Audit.failures a));
  ignore (Format.asprintf "%a" Vino_core.Audit.pp a);
  Vino_core.Audit.clear a;
  Alcotest.(check int) "cleared" 0 (Vino_core.Audit.count a)

let suite =
  [
    ( "core",
      [
        Alcotest.test_case "default runs when ungrafted" `Quick
          test_default_without_graft;
        Alcotest.test_case "graft replaces a member function (Fig 1)" `Quick
          test_graft_replaces_function;
        Alcotest.test_case "unsigned code rejected (Rule 6)" `Quick
          test_unsigned_code_rejected;
        Alcotest.test_case "tampered code rejected (Rule 6)" `Quick
          test_tampered_code_rejected;
        Alcotest.test_case "linker rejects non-callable targets (Rules 4/7)"
          `Quick test_linker_rejects_non_callable;
        Alcotest.test_case "indirect call blocked at runtime (Rule 7)" `Quick
          test_indirect_call_blocked_at_runtime;
        Alcotest.test_case "wild store confined (Rule 3)" `Quick
          test_wild_store_confined_and_harmless;
        Alcotest.test_case "infinite loop cut off, state undone (Rules 1/2/9)"
          `Quick test_infinite_loop_cut_off_and_undone;
        Alcotest.test_case "fault rolls back kernel state (Rule 9)" `Quick
          test_fault_rolls_back_kernel_state;
        Alcotest.test_case "successful graft commits kernel state" `Quick
          test_successful_graft_commits_kernel_state;
        Alcotest.test_case "result validation failure falls back" `Quick
          test_result_validation_failure;
        Alcotest.test_case "restricted points need privilege (Rule 5)" `Quick
          test_restricted_point_requires_privilege;
        Alcotest.test_case "resource limits enforced (Rule 2)" `Quick
          test_resource_limits_enforced;
        Alcotest.test_case "watchdog stops covert DoS (§2.5)" `Quick
          test_watchdog_stops_nonreturning_graft;
        Alcotest.test_case "shared app/graft window" `Quick test_shared_window;
        Alcotest.test_case "namespace lookup + replace (Fig 1)" `Quick
          test_namespace_install_flow;
        Alcotest.test_case "restricted event points need privilege" `Quick
          test_restricted_event_point;
        Alcotest.test_case "event handlers run in order (Fig 2)" `Quick
          test_event_point_handlers_run_in_order;
        Alcotest.test_case "event handler failure isolated" `Quick
          test_event_handler_failure_isolated;
        Alcotest.test_case "nested graft transactions (§3.1)" `Quick
          test_nested_graft_transactions;
        Alcotest.test_case "security events audited" `Quick
          test_audit_trail;
        Alcotest.test_case "cred and namespace basics" `Quick
          test_cred_and_namespace_basics;
        Alcotest.test_case "stale proof: revoked callable rejected" `Quick
          test_stale_proof_callable_rejected;
        Alcotest.test_case "stale proof: undersized segment rejected" `Quick
          test_stale_proof_words_rejected;
        Alcotest.test_case "audit pp is total" `Quick test_audit_pp_total;
        Alcotest.test_case "event payload clipped to window" `Quick
          test_event_payload_truncated_to_window;
        Alcotest.test_case "segment freed on removal" `Quick
          test_segment_freed_on_remove;
        Alcotest.test_case "removed handler's segment outlives its workers"
          `Quick test_removed_handler_segment_outlives_workers;
        Alcotest.test_case
          "removed handler's segment outlives a pending worker" `Quick
          test_removed_handler_segment_outlives_pending_worker;
        Alcotest.test_case "freed segment zeroed before reuse" `Quick
          test_freed_segment_zeroed_before_reuse;
      ] );
  ]
