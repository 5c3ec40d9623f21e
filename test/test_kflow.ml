(* Tests for the static kcall-flow analysis and its dispatch-time
   enforcement: Cfg edge cases feeding the graph, the conservative
   fallbacks, the unreachable-site warning, and the interp/translated
   differential on a hijacked call sequence. *)

module Asm = Vino_vm.Asm
module Insn = Vino_vm.Insn
module Cpu = Vino_vm.Cpu
module Engine = Vino_sim.Engine
module Txn = Vino_txn.Txn
module Rlimit = Vino_txn.Rlimit
module Kernel = Vino_core.Kernel
module Kcall = Vino_core.Kcall
module Audit = Vino_core.Audit
module Wrapper = Vino_core.Wrapper
module Linker = Vino_core.Linker
module Kflow = Vino_verify.Kflow
module Verify = Vino_verify.Verify
module Report = Vino_verify.Report
module Trace = Vino_trace.Trace

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let analyse ?(nfuncs = 2) source =
  let obj = Asm.assemble_exn source in
  Kflow.analyse ~nfuncs obj.Asm.code

(* --------------------------- graph extraction ------------------------- *)

let test_empty_program () =
  let g = Kflow.analyse ~nfuncs:3 [||] in
  Alcotest.(check int) "no nodes" 0 (Kflow.node_count g);
  Alcotest.(check int) "no edges" 0 (Kflow.edge_count g);
  Alcotest.(check int) "no sites" 0 (Kflow.sites g);
  Alcotest.(check bool) "not degraded" false (Kflow.degraded g);
  let t = Kflow.compile g in
  Alcotest.(check bool) "nothing permitted" false
    (Kflow.permits t ~last:Kflow.entry ~next:0)

let test_single_block_loop () =
  (* kcall 0; jmp back: the loop back-edge must produce the self-edge
     0 -> 0, and no exit kcall (the block never reaches graft exit). *)
  let g = analyse [ Label "top"; Kcall_id 0; Jmp "top" ] in
  Alcotest.(check int) "one node" 1 (Kflow.node_count g);
  Alcotest.(check int) "self-edge only" 1 (Kflow.edge_count g);
  Alcotest.(check (list int)) "entry = {0}" [ 0 ] (Kflow.entry_ids g);
  Alcotest.(check (list int)) "no exit kcall" [] (Kflow.exit_ids g);
  let t = Kflow.compile g in
  Alcotest.(check bool) "entry -> 0" true
    (Kflow.permits t ~last:Kflow.entry ~next:0);
  Alcotest.(check bool) "0 -> 0" true (Kflow.permits t ~last:0 ~next:0);
  Alcotest.(check bool) "0 -> 1 not feasible" false
    (Kflow.permits t ~last:0 ~next:1)

let test_branch_arms_join_on_same_kcall () =
  (* Both arms of a conditional end in the same kcall: one edge 0 -> 1,
     exit = {1}, whichever arm ran. *)
  let g =
    analyse
      [
        Kcall_id 0;
        Br (Insn.Ge, Asm.r1, Asm.r2, "arm2");
        Kcall_id 1;
        Jmp "out";
        Label "arm2";
        Kcall_id 1;
        Label "out";
        Li (Asm.r0, 0);
        Ret;
      ]
  in
  Alcotest.(check int) "two nodes" 2 (Kflow.node_count g);
  Alcotest.(check int) "one edge despite two sites" 1 (Kflow.edge_count g);
  Alcotest.(check (list int)) "entry = {0}" [ 0 ] (Kflow.entry_ids g);
  Alcotest.(check (list int)) "exit = {1}" [ 1 ] (Kflow.exit_ids g);
  Alcotest.(check int) "three kcall sites" 3 (Kflow.sites g);
  let t = Kflow.compile g in
  Alcotest.(check bool) "0 -> 1" true (Kflow.permits t ~last:0 ~next:1);
  Alcotest.(check bool) "1 -> 0 not feasible" false
    (Kflow.permits t ~last:1 ~next:0)

let test_kcall_only_in_dead_path () =
  (* The only kcall sits behind an unconditional jump: it is statically
     unreachable, so it contributes nothing to the graph — and the
     dispatcher would abort it if it somehow ran. *)
  let source =
    [
      Asm.Jmp "out"; Kcall_id 0; Label "out"; Li (Asm.r0, 0); Ret;
    ]
  in
  let g = analyse source in
  Alcotest.(check int) "site counted" 1 (Kflow.sites g);
  Alcotest.(check int) "but no node" 0 (Kflow.node_count g);
  Alcotest.(check int) "and no edge" 0 (Kflow.edge_count g);
  Alcotest.(check bool) "may exit with no kcall" true
    (Kflow.may_exit_without_kcall g);
  let t = Kflow.compile g in
  Alcotest.(check bool) "dead kcall not permitted" false
    (Kflow.permits t ~last:Kflow.entry ~next:0)

let test_unreachable_kcall_site_warns () =
  (* Satellite: the verifier flags statically-unreachable kcall sites as a
     warning (dead code), never an error. *)
  let obj =
    Asm.assemble_exn
      [ Asm.Jmp "out"; Kcall_id 0; Label "out"; Li (Asm.r0, 0); Ret ]
  in
  let conf = Verify.config ~entry:[] ~words:4096 ~stage:`Source () in
  let report = Verify.analyse conf obj.Asm.code in
  Alcotest.(check bool) "still ok" true (Report.ok report);
  let site_warnings =
    List.filter
      (fun (d : Report.diag) ->
        d.index = Some 1
        && contains d.message "unreachable kernel-call site")
      (Report.warnings report)
  in
  Alcotest.(check int) "one unreachable-kcall warning at index 1" 1
    (List.length site_warnings)

let test_kcallr_saturates_rows () =
  (* A laundered indirect kernel call is unresolvable: its row — and the
     row of everything it may precede — must saturate, never abort. *)
  let g =
    analyse
      [ Asm.Li (Asm.r1, 0); Kcallr Asm.r1; Kcall_id 1; Li (Asm.r0, 0); Ret ]
  in
  Alcotest.(check bool) "not fully degraded" false (Kflow.degraded g);
  Alcotest.(check bool) "some rows saturated" true (Kflow.full_rows g > 0);
  let t = Kflow.compile g in
  Alcotest.(check bool) "entry -> 0 (unknown target)" true
    (Kflow.permits t ~last:Kflow.entry ~next:0);
  Alcotest.(check bool) "entry -> 1" true
    (Kflow.permits t ~last:Kflow.entry ~next:1);
  Alcotest.(check bool) "0 -> 1" true (Kflow.permits t ~last:0 ~next:1)

let test_callr_degrades_graph () =
  (* An indirect intra-graft call defeats the CFG: the whole graph falls
     back to fully permissive — but ids outside the registry stay out. *)
  let g =
    analyse
      [
        Asm.Li (Asm.r1, 4);
        Callr Asm.r1;
        Li (Asm.r0, 0);
        Ret;
        Kcall_id 0;
        Ret;
      ]
  in
  Alcotest.(check bool) "degraded" true (Kflow.degraded g);
  let t = Kflow.compile g in
  Alcotest.(check bool) "1 -> 0 permitted" true
    (Kflow.permits t ~last:1 ~next:0);
  Alcotest.(check bool) "0 -> 1 permitted" true
    (Kflow.permits t ~last:0 ~next:1);
  Alcotest.(check bool) "unregistered id still refused" false
    (Kflow.permits t ~last:0 ~next:5)

(* ------------------------ dispatch enforcement ------------------------ *)

let witness_source : Asm.item list =
  [ Kcall "kf.lock"; Kcall "kf.use"; Li (Asm.r0, 0); Ret ]

(* Same two kcalls, individually legal, statically-illegal order. *)
let hijack_source : Asm.item list =
  [ Kcall "kf.use"; Kcall "kf.lock"; Li (Asm.r0, 0); Ret ]

let fixture () =
  let kernel = Kernel.create ~mem_words:(1 lsl 16) ~tick:1_000 () in
  let use_ran = ref false in
  ignore (Kernel.register_kcall kernel ~name:"kf.lock" (fun _ -> Kcall.ok));
  ignore
    (Kernel.register_kcall kernel ~name:"kf.use" (fun _ ->
         use_ran := true;
         Kcall.ok));
  (kernel, use_ran)

let pin_witness kernel =
  let obj = Asm.assemble_exn witness_source in
  match Linker.flow_of_obj kernel obj with
  | Error e -> Alcotest.fail e
  | Ok table -> kernel.Kernel.flow_check <- Kernel.Flow_pinned table

let load_exn kernel source =
  let obj = Asm.assemble_exn source in
  match Kernel.seal kernel obj with
  | Error e -> Alcotest.fail e
  | Ok image -> (
      match Linker.load kernel ~words:512 image with
      | Ok loaded -> loaded
      | Error e -> Alcotest.fail e)

let run_loaded ~mode kernel (loaded : Linker.loaded) =
  kernel.Kernel.exec_mode <- mode;
  let result = ref None in
  ignore
    (Engine.spawn kernel.Kernel.engine ~name:"kflow" (fun () ->
         let txn = Txn.begin_ kernel.Kernel.txn_mgr ~name:"kf" () in
         let cpu, outcome =
           Wrapper.exec kernel loaded ~txn ~cred:Vino_core.Cred.root
             ~limits:(Rlimit.unlimited ())
             ~setup:(fun _ -> ())
             ()
         in
         (match outcome with
         | Cpu.Halted -> ignore (Txn.commit txn)
         | _ -> Txn.abort txn ~reason:"kflow-test");
         result := Some (cpu, outcome)));
  Kernel.run kernel;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "graft never ran"

(* One hijack run under a pinned witness table; returns everything the
   differential needs to compare. *)
let hijack_observation mode =
  let kernel, use_ran = fixture () in
  pin_witness kernel;
  let loaded = load_exn kernel hijack_source in
  let sink = Trace.create () in
  let cpu, outcome =
    Trace.with_t sink (fun () -> run_loaded ~mode kernel loaded)
  in
  let message =
    match outcome with
    | Cpu.Aborted m -> m
    | o -> Alcotest.failf "expected abort, got %a" Cpu.pp_outcome o
  in
  Alcotest.(check bool) "violation attributed in the message" true
    (contains message "kcall-flow violation");
  Alcotest.(check bool) "hijacked kcall never executed" false !use_ran;
  Alcotest.(check int) "one flow check" 1
    (Trace.counter_value sink "kflow.checks");
  Alcotest.(check int) "one flow violation" 1
    (Trace.counter_value sink "kflow.violations");
  Alcotest.(check bool) "violation in the audit trail" true
    (List.exists
       (function Audit.Flow_violation _ -> true | _ -> false)
       (List.map
          (fun (e : Audit.entry) -> e.event)
          (Audit.entries kernel.Kernel.audit)));
  Alcotest.(check int) "transaction aborted" 1
    (Txn.aborts kernel.Kernel.txn_mgr);
  ( message,
    Cpu.cycles cpu,
    List.init Insn.num_regs (Cpu.reg cpu),
    Engine.now kernel.Kernel.engine )

let test_hijack_differential_interp_vs_translated () =
  let m1, c1, r1, t1 = hijack_observation Vino_vm.Jit.Interp in
  let m2, c2, r2, t2 = hijack_observation Vino_vm.Jit.Translated in
  Alcotest.(check string) "same abort message" m1 m2;
  Alcotest.(check int) "same cycle count" c1 c2;
  Alcotest.(check (list int)) "same registers" r1 r2;
  Alcotest.(check int) "same virtual end time" t1 t2

let test_legal_sequence_unaffected () =
  (* Enforcement on, no pin: the graft runs against its own extracted
     table, so the witness protocol commits untouched. *)
  List.iter
    (fun mode ->
      let kernel, use_ran = fixture () in
      kernel.Kernel.flow_check <- Kernel.Flow_own;
      let loaded = load_exn kernel witness_source in
      let sink = Trace.create () in
      let _, outcome =
        Trace.with_t sink (fun () -> run_loaded ~mode kernel loaded)
      in
      (match outcome with
      | Cpu.Halted -> ()
      | o -> Alcotest.failf "expected halt, got %a" Cpu.pp_outcome o);
      Alcotest.(check bool) "both kcalls ran" true !use_ran;
      Alcotest.(check int) "two flow checks" 2
        (Trace.counter_value sink "kflow.checks");
      Alcotest.(check int) "no violation" 0
        (Trace.counter_value sink "kflow.violations");
      Alcotest.(check int) "committed" 1 (Txn.commits kernel.Kernel.txn_mgr))
    [ Vino_vm.Jit.Interp; Vino_vm.Jit.Translated ]

let test_enforcement_off_by_default () =
  (* With the check off the hijack is not flow-checked (it still runs
     under every other protection) — the mechanism is opt-in, so all
     pre-existing cycle counts are unchanged. *)
  let kernel, use_ran = fixture () in
  let loaded = load_exn kernel hijack_source in
  let sink = Trace.create () in
  let _, outcome =
    Trace.with_t sink (fun () ->
        run_loaded ~mode:Vino_vm.Jit.Translated kernel loaded)
  in
  (match outcome with
  | Cpu.Halted -> ()
  | o -> Alcotest.failf "expected halt, got %a" Cpu.pp_outcome o);
  Alcotest.(check bool) "kcalls ran" true !use_ran;
  Alcotest.(check int) "no flow checks charged" 0
    (Trace.counter_value sink "kflow.checks")

let suite =
  [
    ( "kflow",
      [
        Alcotest.test_case "empty program, empty graph" `Quick
          test_empty_program;
        Alcotest.test_case "single-block loop self-edge" `Quick
          test_single_block_loop;
        Alcotest.test_case "branch arms join on the same kcall" `Quick
          test_branch_arms_join_on_same_kcall;
        Alcotest.test_case "kcall only in dead path excluded" `Quick
          test_kcall_only_in_dead_path;
        Alcotest.test_case "unreachable kcall site warns" `Quick
          test_unreachable_kcall_site_warns;
        Alcotest.test_case "kcallr saturates rows" `Quick
          test_kcallr_saturates_rows;
        Alcotest.test_case "callr degrades the whole graph" `Quick
          test_callr_degrades_graph;
        Alcotest.test_case "hijack: interp/translated differential" `Quick
          test_hijack_differential_interp_vs_translated;
        Alcotest.test_case "legal sequence unaffected by enforcement" `Quick
          test_legal_sequence_unaffected;
        Alcotest.test_case "enforcement off by default" `Quick
          test_enforcement_off_by_default;
      ] );
  ]
