(* Dealing with disaster: a gauntlet of misbehaved kernel extensions.

   One kernel survives, in order: a wild-store graft, a private-data thief,
   an infinite loop cut off by its CPU budget, a memory hog, a lock
   hoarder contending with an innocent transaction, a covert denial of
   service against a watchdogged point, and a forged image. After every
   disaster the kernel's state is verified intact and the next graft
   installs normally (Table 1, Rule 9). The example exits 1 if the
   infinite loop or the denial of service dies any other way.

   The thief tries twice. Calling the secret's id straight from a register
   is refused at load: the linker proves the call can only reach a
   function that is not graft-callable. Laundering the id through the
   stack hides it from that proof, so MiSFIT's run-time Checkcall probe
   refuses the call instead and the graft is removed.

   Run with: dune exec examples/misbehave.exe *)

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
module Cred = Vino_core.Cred

let kernel = Kernel.create ~tick:12_000 (* 100 us ticks for a snappy demo *) ()
let important_kernel_state = ref 1000

let () =
  (* a guarded accessor with undo, a limited allocator, and a secret *)
  let (_ : Kcall.fn) =
    Kernel.register_kcall kernel ~name:"state.add" (fun ctx ->
        let old = !important_kernel_state in
        (match ctx.Kcall.txn with
        | Some txn ->
            Txn.push_undo txn ~label:"state.restore" (fun () ->
                important_kernel_state := old)
        | None -> ());
        important_kernel_state := old + Kcall.arg ctx.Kcall.cpu 0;
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
            Kcall.return ctx.Kcall.cpu 1;
            Kcall.ok)
  in
  let (_ : Kcall.fn) =
    Kernel.register_kcall kernel ~name:"secret.read" ~callable:false
      (fun ctx ->
        Kcall.return ctx.Kcall.cpu 0xC0FFEE;
        Kcall.ok)
  in
  ()

let contested_lock = Kernel.make_lock kernel ~timeout:24_000 ~name:"resourceA" ()

let point =
  Graft_point.create ~name:"victim.point" ~watchdog:600_000
    ~budget:2_000_000
    ~default:(fun x -> x + 1)
    ~setup:(fun cpu x -> Cpu.set_reg cpu 1 x)
    ~read_result:(fun cpu _ -> Ok (Cpu.reg cpu 0))
    ()

(* No watchdog here: a graft that never returns runs until its CPU
   budget is spent (Rule 2). *)
let budget_point =
  Graft_point.create ~name:"budget.point" ~budget:2_000_000
    ~default:(fun x -> x + 1)
    ~setup:(fun cpu x -> Cpu.set_reg cpu 1 x)
    ~read_result:(fun cpu _ -> Ok (Cpu.reg cpu 0))
    ()

let mallory = Cred.user "mallory" ~limits:(Rlimit.zero ())

let try_install ?(at = point) source =
  match Kernel.seal kernel (Asm.assemble_exn source) with
  | Error e -> failwith e
  | Ok image -> Graft_point.replace at kernel ~cred:mallory image

let install ?at source =
  match try_install ?at source with Ok () -> () | Error e -> failwith e

let invoke_in_process at =
  let result = ref None in
  ignore
    (Engine.spawn kernel.Kernel.engine ~name:"invoker" (fun () ->
         result := Some (Graft_point.invoke at kernel ~cred:mallory 41)));
  Kernel.run kernel;
  !result

let report ?(at = point) disaster =
  let r = invoke_in_process at in
  Printf.printf "%-34s -> result %s | graft %s | kernel state %d %s\n"
    disaster
    (match r with Some v -> string_of_int v | None -> "?")
    (if Graft_point.grafted at then "SURVIVED" else "removed ")
    !important_kernel_state
    (if !important_kernel_state = 1000 then "(intact)" else "(CORRUPTED!)")

(* A case that names what stops its graft must be stopped by exactly
   that. *)
let expect_failure at reason =
  match Graft_point.last_failure at with
  | Some r when r = reason -> ()
  | r ->
      Printf.printf "expected the graft to fail with %S, got %s\n" reason
        (match r with Some r -> Printf.sprintf "%S" r | None -> "no failure");
      exit 1

let () =
  print_endline "== Surviving misbehaved kernel extensions ==\n";

  (* 0. an honest graft, to show the machinery working *)
  install [ Alui (Insn.Add, Asm.r0, Asm.r1, 1); Ret ];
  report "well-behaved graft";

  (* 1. wild store at kernel address 7 — confined by SFI *)
  install
    [
      Li (Asm.r5, 7);
      Li (Asm.r6, 0xBAD);
      St (Asm.r6, Asm.r5, 0);
      Alui (Insn.Add, Asm.r0, Asm.r1, 1);
      Ret;
    ];
  report "wild store into kernel memory";
  Printf.printf "%-34s    kernel word 7 = %d (untouched)\n" ""
    (Mem.load kernel.Kernel.mem 7);

  (* 2. stealing private data through an indirect call (secret.read is
     id 2): refused at load while the id is visible, caught at run time
     once it is laundered through the stack *)
  (match try_install [ Li (Asm.r5, 2); Kcallr Asm.r5; Ret ] with
  | Ok () -> print_endline "provably bad indirect call LOADED (bug!)"
  | Error e ->
      Printf.printf "%-34s -> rejected at load: %s\n"
        "indirect call to secret.read" e);
  install [ Li (Asm.r6, 2); Push Asm.r6; Pop Asm.r5; Kcallr Asm.r5; Ret ];
  report "laundered call to secret.read";

  (* 3. mutate kernel state, then crash: transaction undoes it *)
  install
    [
      Li (Asm.r1, 666);
      Kcall "state.add";
      Li (Asm.r5, 0);
      Li (Asm.r6, 1);
      Alu (Insn.Div, Asm.r0, Asm.r6, Asm.r5);
      Ret;
    ];
  report "state change followed by crash";

  (* 4. infinite loop: cut off by the CPU budget *)
  install ~at:budget_point [ Asm.Label "spin"; Jmp "spin" ];
  report ~at:budget_point "infinite loop (lock-free)";
  expect_failure budget_point "CPU budget exhausted";

  (* 5. memory hog: zero limits deny it *)
  install [ Li (Asm.r1, 1_000_000); Kcall "mem.alloc"; Ret ];
  report "1M-word allocation (0=denied)";

  (* 6. §2.2's fragment: lock(resourceA); while(1). An innocent
     transaction wants resourceA; its timeout aborts the hog. *)
  let (_ : Kcall.fn) =
    Kernel.register_kcall kernel ~name:"resourceA.lock" (fun ctx ->
        match ctx.Kcall.txn with
        | None -> Kcall.abort "lock outside transaction"
        | Some txn -> (
            match Txn.acquire_lock txn contested_lock Exclusive with
            | Ok () -> Kcall.ok
            | Error reason -> Kcall.abort reason))
  in
  install [ Kcall "resourceA.lock"; Asm.Label "spin2"; Jmp "spin2" ];
  let innocent_got_lock = ref false in
  ignore
    (Engine.spawn kernel.Kernel.engine ~name:"hog-invoker" (fun () ->
         ignore (Graft_point.invoke point kernel ~cred:mallory 41)));
  ignore
    (Engine.spawn kernel.Kernel.engine ~name:"innocent" (fun () ->
         Engine.delay 50_000;
         let txn = Txn.begin_ kernel.Kernel.txn_mgr ~name:"innocent" () in
         (match Txn.acquire_lock txn contested_lock Exclusive with
         | Ok () -> innocent_got_lock := true
         | Error _ -> ());
         ignore (Txn.commit txn)));
  Kernel.run kernel;
  Printf.printf "%-34s -> innocent txn %s | graft %s | kernel state %d\n"
    "lock(resourceA); while(1);"
    (if !innocent_got_lock then "got the lock" else "STARVED")
    (if Graft_point.grafted point then "SURVIVED" else "removed ")
    !important_kernel_state;

  (* 7. covert denial of service: never return; the watchdog fires *)
  install [ Asm.Label "spin3"; Jmp "spin3" ];
  report "covert DoS against watchdogged point";
  expect_failure point "graft point \"victim.point\": watchdog expired";

  (* 8. a forged image straight from the attacker *)
  let forged =
    Vino_misfit.Image.seal_unsafe ~key:"attacker-key"
      (Asm.assemble_exn [ Li (Asm.r0, 0); Ret ])
  in
  (match Graft_point.replace point kernel ~cred:mallory forged with
  | Ok () -> print_endline "forged image LOADED (bug!)"
  | Error e -> Printf.printf "%-34s -> rejected: %s\n" "forged signature" e);

  Printf.printf
    "\nfinal: kernel state %d, %d transactions aborted, %d committed — the \
     kernel never crashed.\n"
    !important_kernel_state
    (Txn.aborts kernel.Kernel.txn_mgr)
    (Txn.commits kernel.Kernel.txn_mgr);

  print_endline "\naudit trail of the disasters:";
  Format.printf "%a@." Vino_core.Audit.pp kernel.Kernel.audit
