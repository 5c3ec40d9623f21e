(* Tests for the static graft verifier: the abstract domain, the CFG, the
   classification of memory accesses and indirect kernel calls, the lint
   diagnostics, the rewriter's verified fast path, and the link-time
   rejection of provably unsafe grafts.

   The key property is *conservative soundness*: a Safe verdict licenses
   the rewriter to elide a run-time check, so eliding must never change
   behaviour. The differential tests run the same graft with and without
   elided checks under adversarial inputs and require identical memory and
   outcome — and strictly fewer cycles on the verified side. *)

module Insn = Vino_vm.Insn
module Mem = Vino_vm.Mem
module Cpu = Vino_vm.Cpu
module Asm = Vino_vm.Asm
module Absval = Vino_verify.Absval
module Cfg = Vino_verify.Cfg
module Report = Vino_verify.Report
module Verify = Vino_verify.Verify
module Rewrite = Vino_misfit.Rewrite
module Kernel = Vino_core.Kernel
module Linker = Vino_core.Linker

let absv = Alcotest.testable Absval.pp Absval.equal
let num lo hi = Absval.Num (Absval.itv lo hi)
let seg lo hi = Absval.Seg (Absval.itv lo hi)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let analyse ?entry ?callable ?stage ~words prog =
  Verify.analyse (Verify.config ?entry ?callable ?stage ~words ()) prog

let has_diag severity report sub =
  List.exists
    (fun d ->
      d.Report.severity = severity && contains d.Report.message sub)
    report.Report.diags

let diag_at severity report index sub =
  List.exists
    (fun d ->
      d.Report.severity = severity
      && d.Report.index = Some index
      && contains d.Report.message sub)
    report.Report.diags

let count_sandbox code =
  Array.fold_left
    (fun acc i -> match i with Insn.Sandbox _ -> acc + 1 | _ -> acc)
    0 code

let count_checkcall code =
  Array.fold_left
    (fun acc i -> match i with Insn.Checkcall _ -> acc + 1 | _ -> acc)
    0 code

let process_exn ?verifier prog =
  match Rewrite.process ?verifier prog with
  | Ok code -> code
  | Error e -> Alcotest.fail e

(* ------------------------------ Absval -------------------------------- *)

let test_absval_join_widen () =
  Alcotest.check absv "num hull" (num 0 9)
    (Absval.join (num 0 3) (num 5 9));
  Alcotest.check absv "seg hull" (seg 0 8) (Absval.join (seg 0 0) (seg 8 8));
  Alcotest.check absv "mixed kinds lose" Absval.Top
    (Absval.join (seg 0 0) (num 0 0));
  Alcotest.check absv "bot is identity" (num 1 2)
    (Absval.join Absval.Bot (num 1 2));
  Alcotest.check absv "widen jumps a growing bound to infinity"
    (num 0 max_int)
    (Absval.widen (num 0 3) (num 0 5));
  Alcotest.check absv "widen is stable on shrinking bounds" (num 0 3)
    (Absval.widen (num 0 3) (num 1 3));
  Alcotest.check absv "widen keeps the pointer kind"
    (Absval.Seg (Absval.itv 0 max_int))
    (Absval.widen (seg 0 1) (seg 0 2))

let test_absval_alu () =
  Alcotest.check absv "seg + bounded num stays a pointer" (seg 0 7)
    (Absval.alu Add (seg 0 0) (num 0 7));
  Alcotest.check absv "stk - 1" (Absval.Stk (Absval.const_itv (-1)))
    (Absval.alu Sub (Absval.Stk (Absval.const_itv 0)) (num 1 1));
  Alcotest.check absv "seg - seg is the offset difference" (num 2 3)
    (Absval.alu Sub (seg 4 4) (seg 1 2));
  Alcotest.check absv "masking an unknown bounds it" (num 0 255)
    (Absval.alu And Absval.Top (num 255 255));
  Alcotest.check absv "constant folding" (num 3 3)
    (Absval.alu Div (num 13 13) (num 4 4))

let test_absval_refine () =
  (match Absval.refine Lt Absval.(Num top_itv) (num 10 10) with
  | Ok (Some (Absval.Num i, _)) ->
      Alcotest.(check int) "lt tightens the upper bound" 9 i.Absval.hi
  | _ -> Alcotest.fail "expected a refinement");
  (match Absval.refine Ge (num 0 100) (num 10 10) with
  | Ok (Some (Absval.Num i, _)) ->
      Alcotest.(check int) "ge tightens the lower bound" 10 i.Absval.lo
  | _ -> Alcotest.fail "expected a refinement");
  (match Absval.refine Lt (num 5 5) (num 3 3) with
  | Error `Infeasible -> ()
  | Ok _ -> Alcotest.fail "5 < 3 should be infeasible");
  match Absval.refine Lt (seg 0 0) (num 3 3) with
  | Ok None -> ()
  | _ -> Alcotest.fail "mixed kinds must not refine (unknown base)"

(* -------------------------------- Cfg --------------------------------- *)

(* The crypt-shaped transform loop used throughout: r1 = source pointer,
   r2 = destination pointer, r3 = word count, all established at entry. *)
let crypt_prog =
  Insn.
    [|
      Li (5, 0);
      Br (Ge, 5, 3, 9);
      Alu (Add, 6, 1, 5);
      Ld (7, 6, 0);
      Alui (Xor, 7, 7, 0x55);
      Alu (Add, 8, 2, 5);
      St (7, 8, 0);
      Alui (Add, 5, 5, 1);
      Jmp 1;
      Halt;
    |]

let crypt_entry =
  [
    (1, Verify.seg_window ());
    (2, Verify.seg_window ~off:64 ());
    (3, Verify.arg_at_most 64);
  ]

let test_cfg_blocks () =
  let cfg = Cfg.build crypt_prog in
  let blocks = Cfg.blocks cfg in
  Alcotest.(check int) "four blocks" 4 (Array.length blocks);
  Alcotest.(check int) "entry starts at 0" 0 (Cfg.entry cfg).Cfg.first;
  let body = Cfg.block_at cfg 5 in
  Alcotest.(check int) "loop body starts after the branch" 2 body.Cfg.first;
  Alcotest.(check int) "loop body ends at the back jump" 8 body.Cfg.last;
  Alcotest.(check bool) "everything reachable" true
    (Array.for_all Fun.id (Cfg.reachable cfg));
  Alcotest.(check bool) "well-terminated loop" false (Cfg.falls_off_end cfg)

let test_cfg_falls_off_end () =
  Alcotest.(check bool) "open end detected" true
    (Cfg.falls_off_end (Cfg.build [| Insn.Li (0, 1) |]));
  Alcotest.(check bool) "halt closes the program" false
    (Cfg.falls_off_end (Cfg.build [| Insn.Halt |]));
  Alcotest.(check bool) "callr is computed flow" true
    (Cfg.has_indirect_call [| Insn.Callr 1; Insn.Ret |])

(* ---------------------- access classification ------------------------- *)

let test_crypt_loop_proved () =
  (* the paper's worst SFI case: per-word load + store in a loop. The
     interval analysis (widening at the loop head, branch refinement on the
     exit test) proves both accesses for every conforming input. *)
  let report = analyse ~entry:crypt_entry ~words:128 crypt_prog in
  Alcotest.(check bool) "accepted" true (Report.ok report);
  Alcotest.(check bool) "not degraded" false report.Report.degraded;
  Alcotest.(check int) "both accesses proved" 2 (Report.safe_accesses report);
  Alcotest.(check int) "out of two" 2 (Report.total_accesses report)

let test_oob_stack_rejected () =
  (* sp+3 points above the initial stack pointer: outside the segment on
     every execution *)
  let prog =
    Insn.[| Alui (Add, 5, Insn.sp, 3); Ld (0, 5, 0); Halt |]
  in
  let report = analyse ~words:64 prog in
  Alcotest.(check bool) "rejected" false (Report.ok report);
  (match report.Report.classes.(1) with
  | Report.Access Report.Access_oob -> ()
  | _ -> Alcotest.fail "load not classified provably out of bounds");
  Alcotest.(check bool) "per-instruction diagnostic" true
    (diag_at Report.Error report 1 "provably outside the graft segment")

let test_oob_negative_offset_rejected () =
  let prog = Insn.[| Ld (0, 4, -5); Halt |] in
  let report =
    analyse ~entry:[ (4, Verify.seg_window ()) ] ~words:16 prog
  in
  Alcotest.(check bool) "rejected" false (Report.ok report);
  match report.Report.classes.(0) with
  | Report.Access Report.Access_oob -> ()
  | _ -> Alcotest.fail "below-segment load not flagged"

let test_unknown_address_needs_sandbox () =
  let prog = Insn.[| Ld (0, 1, 0); Halt |] in
  let report = analyse ~words:64 prog in
  Alcotest.(check bool) "accepted" true (Report.ok report);
  match report.Report.classes.(0) with
  | Report.Access Report.Access_sandbox -> ()
  | _ -> Alcotest.fail "unprovable access must keep its sandbox"

(* ------------------------ call classification ------------------------- *)

let callable id = id = 7

let test_kcallr_proved_callable () =
  let prog = Insn.[| Li (5, 7); Kcallr 5; Halt |] in
  let report = analyse ~callable ~words:4 prog in
  Alcotest.(check bool) "accepted" true (Report.ok report);
  Alcotest.(check int) "checkcall elidable" 1 (Report.safe_calls report);
  match report.Report.classes.(1) with
  | Report.Icall (Report.Call_safe 7) -> ()
  | _ -> Alcotest.fail "constant callable id not proved"

let test_kcallr_unknown_id_rejected () =
  let prog = Insn.[| Li (5, 99); Kcallr 5; Halt |] in
  let report = analyse ~callable ~words:4 prog in
  Alcotest.(check bool) "rejected" false (Report.ok report);
  (match report.Report.classes.(1) with
  | Report.Icall (Report.Call_bad 99) -> ()
  | _ -> Alcotest.fail "bad constant id not classified Call_bad");
  Alcotest.(check bool) "per-instruction diagnostic" true
    (diag_at Report.Error report 1 "provably not graft-callable")

let test_kcallr_without_callable_set () =
  (* no offline callable set: a constant id is still only checkable at
     run time *)
  let prog = Insn.[| Li (5, 7); Kcallr 5; Halt |] in
  let report = analyse ~words:4 prog in
  Alcotest.(check bool) "accepted" true (Report.ok report);
  match report.Report.classes.(1) with
  | Report.Icall Report.Call_check -> ()
  | _ -> Alcotest.fail "expected a conservative Call_check"

let test_direct_kcall_checked () =
  let prog = Insn.[| Kcall 99; Halt |] in
  let report = analyse ~callable ~words:4 prog in
  Alcotest.(check bool) "rejected" false (Report.ok report);
  Alcotest.(check bool) "named in the diagnostic" true
    (has_diag Report.Error report "id 99 is not graft-callable")

(* ------------------------------- lints -------------------------------- *)

let test_lint_unreachable () =
  let prog = Insn.[| Jmp 2; Li (0, 1); Halt |] in
  let report = analyse ~words:4 prog in
  Alcotest.(check bool) "lints are not errors" true (Report.ok report);
  Alcotest.(check bool) "warned" true
    (has_diag Report.Warning report "unreachable");
  match report.Report.classes.(1) with
  | Report.Unreachable -> ()
  | _ -> Alcotest.fail "dead instruction not classified unreachable"

let test_lint_fall_off_end () =
  let report = analyse ~words:4 [| Insn.Li (0, 1) |] in
  Alcotest.(check bool) "hard error" false (Report.ok report);
  Alcotest.(check bool) "explains the fall-through" true
    (has_diag Report.Error report "fall through past the end")

let test_lint_uninitialised_read () =
  let report = analyse ~words:4 Insn.[| Mov (0, 7); Halt |] in
  Alcotest.(check bool) "warning only" true (Report.ok report);
  Alcotest.(check bool) "names the register" true
    (has_diag Report.Warning report "register r7 read before initialisation")

let test_lint_reserved_register () =
  let prog = Insn.[| Mov (Insn.scratch, 1); Halt |] in
  let report = analyse ~words:4 prog in
  Alcotest.(check bool) "rejected at source stage" false (Report.ok report);
  Alcotest.(check bool) "names the reservation" true
    (has_diag Report.Error report "reserved sandbox register");
  let rewritten = analyse ~stage:`Rewritten ~words:4 prog in
  Alcotest.(check bool) "legitimate in rewriter output" true
    (Report.ok rewritten)

let test_lint_division_by_zero_is_survivable () =
  (* a provable run-time fault is undone by the transaction machinery, so
     it warns instead of blocking the graft (unlike memory safety) *)
  let prog = Insn.[| Li (6, 0); Alu (Div, 0, 1, 6); Halt |] in
  let report = analyse ~words:4 prog in
  Alcotest.(check bool) "not a link-time rejection" true (Report.ok report);
  Alcotest.(check bool) "warned" true
    (has_diag Report.Warning report "provably-zero divisor")

let test_lint_stack_imbalance () =
  let report = analyse ~words:8 Insn.[| Push 1; Ret |] in
  Alcotest.(check bool) "warning only" true (Report.ok report);
  Alcotest.(check bool) "warned" true
    (has_diag Report.Warning report "stack-depth imbalance")

let test_callr_degrades () =
  let prog = Insn.[| Callr 1; Ld (0, 1, 0); Ret |] in
  let report = analyse ~entry:[ (1, Verify.seg_window ()) ] ~words:64 prog in
  Alcotest.(check bool) "still loadable" true (Report.ok report);
  Alcotest.(check bool) "degraded" true report.Report.degraded;
  Alcotest.(check bool) "warned" true
    (has_diag Report.Warning report "degraded to run-time checks");
  match report.Report.classes.(1) with
  | Report.Access Report.Access_sandbox -> ()
  | _ -> Alcotest.fail "degraded analysis must stay conservative"

let test_call_havocs_fall_through () =
  (* the graft IR has no callee-save convention: entry facts must not
     survive an intra-graft call *)
  let prog = Insn.[| Call 3; Ld (0, 1, 0); Halt; Ret |] in
  let report = analyse ~entry:[ (1, Verify.seg_window ()) ] ~words:64 prog in
  Alcotest.(check bool) "accepted" true (Report.ok report);
  match report.Report.classes.(1) with
  | Report.Access Report.Access_sandbox -> ()
  | _ -> Alcotest.fail "post-call access must be re-checked at run time"

let test_malformed_programs () =
  let empty = analyse ~words:4 [||] in
  Alcotest.(check bool) "empty rejected" false (Report.ok empty);
  let wild = analyse ~words:4 [| Insn.Jmp 7 |] in
  Alcotest.(check bool) "wild target rejected" false (Report.ok wild);
  Alcotest.(check bool) "wild target degrades" true wild.Report.degraded

(* -------------------- rewriter verified fast path ---------------------- *)

let test_process_elides_proven_sandboxes () =
  let verifier = Verify.config ~entry:crypt_entry ~words:128 () in
  let safe = process_exn crypt_prog in
  let verified = process_exn ~verifier crypt_prog in
  Alcotest.(check int) "safe path sandboxes both accesses" 2
    (count_sandbox safe);
  Alcotest.(check int) "verified path elides every sandbox" 0
    (count_sandbox verified);
  Alcotest.(check int) "verified output is the input"
    (Array.length crypt_prog) (Array.length verified)

let test_process_elides_proven_checkcall () =
  let prog = Insn.[| Li (5, 7); Kcallr 5; Halt |] in
  let plain = process_exn prog in
  Alcotest.(check int) "checkcall inserted by default" 1
    (count_checkcall plain);
  let verifier = Verify.config ~callable ~words:4 () in
  let verified = process_exn ~verifier prog in
  Alcotest.(check int) "proven id keeps the raw kcallr" 0
    (count_checkcall verified)

let test_process_rejects_oob () =
  let prog =
    Insn.[| Alui (Add, 5, Insn.sp, 3); Ld (0, 5, 0); Halt |]
  in
  let verifier = Verify.config ~words:64 () in
  match Rewrite.process ~verifier prog with
  | Error e ->
      Alcotest.(check bool) "diagnostic survives" true
        (contains e "provably outside the graft segment")
  | Ok _ -> Alcotest.fail "provably out-of-bounds graft was rewritten"

(* ------------------------- link-time rejection ------------------------- *)

let test_linker_rejects_oob_graft () =
  let kernel = Kernel.create ~mem_words:(1 lsl 12) () in
  let obj =
    {
      Asm.code =
        Insn.[| Alui (Add, 5, Insn.sp, 3); Ld (0, 5, 0); Halt |];
      relocs = [];
    }
  in
  (* seal_unsafe skips the rewriter, so the image reaches the linker with
     its provably-wild access intact: the linker's own verifier pass must
     catch it *)
  let image = Kernel.seal_unsafe kernel obj in
  match Linker.load kernel ~words:64 image with
  | Error msg ->
      Alcotest.(check bool) "labelled" true
        (contains msg "static verification failed");
      Alcotest.(check bool) "diagnosed" true
        (contains msg "provably outside the graft segment")
  | Ok _ -> Alcotest.fail "linker loaded a provably out-of-bounds graft"

let test_linker_rejects_unknown_kcallr_id () =
  let kernel = Kernel.create ~mem_words:(1 lsl 12) () in
  let obj =
    { Asm.code = Insn.[| Li (5, 999_999); Kcallr 5; Halt |]; relocs = [] }
  in
  let image = Kernel.seal_unsafe kernel obj in
  (match Linker.load kernel ~words:64 image with
  | Error msg ->
      Alcotest.(check bool) "diagnosed" true
        (contains msg "provably not graft-callable")
  | Ok _ -> Alcotest.fail "linker loaded a provably bad indirect call");
  (* and sealing with verification refuses it even earlier, using the
     kernel's registry as the callable set *)
  match Kernel.seal ~verify:(Verify.config ~words:64 ()) kernel obj with
  | Error msg ->
      Alcotest.(check bool) "seal-time diagnosis" true
        (contains msg "provably not graft-callable")
  | Ok _ -> Alcotest.fail "seal accepted a provably bad indirect call"

let test_linker_accepts_clean_graft () =
  let kernel = Kernel.create ~mem_words:(1 lsl 12) () in
  let obj = { Asm.code = Insn.[| Li (0, 1); Halt |]; relocs = [] } in
  let image = Kernel.seal_unsafe kernel obj in
  match Linker.load kernel ~words:64 image with
  | Ok loaded -> Linker.unload kernel loaded
  | Error e -> Alcotest.fail e

(* --------------------- differential: elision is sound ------------------ *)

(* Run a rewritten graft on a fresh machine with adversarial memory
   contents and conforming entry registers; return everything observable. *)
let exec code ~len =
  let mem = Mem.create 1024 in
  let seg = Mem.segment ~base:512 ~size:128 in
  for k = 0 to 63 do
    Mem.store mem (512 + k)
      (if k mod 7 = 0 then min_int + k else (k * 2654435761) lxor (k lsl 9))
  done;
  let cpu = Cpu.make ~mem ~seg () in
  Cpu.set_reg cpu 1 512;
  Cpu.set_reg cpu 2 (512 + 64);
  Cpu.set_reg cpu 3 len;
  let outcome = Cpu.run Cpu.env_trusted cpu code in
  (outcome, Array.init (Mem.size mem) (Mem.load mem), Cpu.cycles cpu)

let test_differential_crypt () =
  let verifier = Verify.config ~entry:crypt_entry ~words:128 () in
  let safe = process_exn crypt_prog in
  let verified = process_exn ~verifier crypt_prog in
  List.iter
    (fun len ->
      let o_s, m_s, c_s = exec safe ~len in
      let o_v, m_v, c_v = exec verified ~len in
      Alcotest.(check bool)
        (Printf.sprintf "len %d: same outcome" len)
        true
        (o_s = Cpu.Halted && o_v = Cpu.Halted);
      Alcotest.(check (array int))
        (Printf.sprintf "len %d: identical memory" len)
        m_s m_v;
      Alcotest.(check bool)
        (Printf.sprintf "len %d: verified never slower" len)
        true (c_v <= c_s);
      if len > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "len %d: verified strictly cheaper" len)
          true (c_v < c_s))
    [ 0; 1; 63; 64 ]

let test_differential_wild_store_still_confined () =
  (* an unprovable store keeps its sandbox on the verified path, so a wild
     address is confined identically under both rewrites *)
  let wild = Insn.[| Li (6, 987_654); St (1, 6, 0); Halt |] in
  let verifier = Verify.config ~words:128 () in
  let safe = process_exn wild in
  let verified = process_exn ~verifier wild in
  Alcotest.(check int) "sandbox kept" 1 (count_sandbox verified);
  let o_s, m_s, _ = exec safe ~len:0 in
  let o_v, m_v, _ = exec verified ~len:0 in
  Alcotest.(check bool) "both halt" true (o_s = Cpu.Halted && o_v = o_s);
  Alcotest.(check (array int)) "identical memory" m_s m_v

(* Property: for random straight-line programs over conforming pointers,
   the verified rewrite and the always-sandbox rewrite are observationally
   identical. Offsets stay within the proven window so the verifier may
   elide, and the elision must not show. *)
let prop_differential_straight_line =
  let open QCheck2 in
  Test.make ~name:"verified elision is observationally sound" ~count:150
    Gen.(list_size (int_range 1 12) (pair (int_range 0 63) (int_range 0 1)))
    (fun ops ->
      let body =
        ops
        |> List.concat_map (fun (off, kind) ->
               if kind = 0 then [ Insn.Ld (6, 1, off) ]
               else [ Insn.Alui (Add, 7, 6, 1); Insn.St (7, 1, off) ])
      in
      let prog = Array.of_list (body @ [ Insn.Halt ]) in
      let verifier =
        Verify.config ~entry:[ (1, Verify.seg_window ()) ] ~words:128 ()
      in
      match (Rewrite.process prog, Rewrite.process ~verifier prog) with
      | Ok safe, Ok verified ->
          let o_s, m_s, c_s = exec safe ~len:0 in
          let o_v, m_v, c_v = exec verified ~len:0 in
          o_s = Cpu.Halted && o_v = Cpu.Halted && m_s = m_v && c_v <= c_s
      | _ -> false)

(* --------------------- golden: analyser output pinned ------------------ *)

(* Every report the analyser produces over a fixed corpus, rendered in
   full (per-instruction classes, diagnostics in order, the degraded
   flag) and reduced to one fixed digest, so any change to a verdict, a
   diagnostic, its text or its order fails here: seal-time elision, the
   linker's verdicts and [vino verify] listings derive from exactly
   these reports.

   Corpus: the disaster campaign's 5 x 8 family x injector variants at a
   fixed seed, sealed with the site kernel's key and relocation-patched
   as {!Linker.load} patches them, analysed under the linker's own
   configuration and segment size; plus every shipped example graft at
   the [`Source] stage, without entry facts and with the stream graft
   point's (r1/r2 windows, r3 a count). *)
let render_report b (r : Report.t) =
  let call = function
    | Report.Call_safe id -> Printf.sprintf "call-safe %d" id
    | Report.Call_check -> "call-check"
    | Report.Call_bad id -> Printf.sprintf "call-bad %d" id
  in
  Array.iteri
    (fun k c ->
      Printf.bprintf b "%d %s\n" k
        (match c with
        | Report.Plain -> "plain"
        | Report.Access Report.Access_safe -> "safe"
        | Report.Access Report.Access_sandbox -> "sandbox"
        | Report.Access Report.Access_oob -> "oob"
        | Report.Icall c -> call c
        | Report.Unreachable -> "unreachable"))
    r.Report.classes;
  List.iter
    (fun (d : Report.diag) ->
      Printf.bprintf b "%s@%s %s\n"
        (match d.severity with Report.Error -> "E" | Report.Warning -> "W")
        (match d.index with Some k -> string_of_int k | None -> "-")
        d.message)
    r.Report.diags;
  Printf.bprintf b "degraded=%b\n" r.Report.degraded

(* The segment each site family requests from {!Linker.load}: shared +
   heap + the 256-word stack, as [Site] installs them. *)
let site_words = function
  | Vino_disaster.Site.Fs_readahead -> 16 + 64 + 256
  | Vino_disaster.Site.Vmem_evict -> 64 + 256 + 256
  | Vino_disaster.Site.Sched_delegate -> 4 + 32 + 256
  | Vino_disaster.Site.Stream_copy -> (2 * 64) + 1024 + 256
  | Vino_disaster.Site.Net_handler -> 2048 + 1024 + 256

let golden_corpus () =
  let examples_dir =
    let tried = [ "../examples/grafts"; "examples/grafts" ] in
    match List.find_opt Sys.file_exists tried with
    | Some dir -> dir
    | None ->
        Alcotest.failf "no examples directory: tried %s from %s"
          (String.concat ", " tried) (Sys.getcwd ())
  in
  let module Site = Vino_disaster.Site in
  let module Injector = Vino_disaster.Injector in
  let b = Buffer.create 65536 in
  let rejected = ref 0 in
  let sites = List.map (fun f -> (f, Site.create f)) Site.all_families in
  for index = 0 to 39 do
    let family, kind = Vino_disaster.Campaign.combo index in
    let site = List.assoc family sites in
    let variant =
      Injector.apply kind
        ~rng:(Vino_disaster.Seed.derive ~seed:60013 index)
        ~rig:site.Site.rig site.Site.healthy
    in
    Printf.bprintf b "== %s/%s\n" (Site.family_name family)
      (Injector.name kind);
    match Asm.assemble variant.Injector.source with
    | Error e -> Printf.bprintf b "assemble: %s\n" e
    | Ok obj -> (
        match Kernel.seal site.Site.kernel obj with
        | Error e -> Printf.bprintf b "seal: %s\n" e
        | Ok image -> (
            let kernel = site.Site.kernel in
            match
              Linker.patched kernel image.Vino_misfit.Image.code
                image.Vino_misfit.Image.relocs
            with
            | Error e -> Printf.bprintf b "link: %s\n" e
            | Ok code ->
                let r =
                  Verify.analyse
                    (Linker.check_config kernel ~words:(site_words family))
                    code
                in
                if
                  List.exists
                    (fun (d : Report.diag) ->
                      contains d.message "provably not graft-callable")
                    (Report.errors r)
                then incr rejected;
                render_report b r))
  done;
  let facts =
    [
      (1, Verify.seg_window ());
      (2, Verify.seg_window ~off:2048 ());
      (3, Verify.arg_at_most 2048);
    ]
  in
  Sys.readdir examples_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".gasm")
  |> List.sort compare
  |> List.iter (fun f ->
         match Vino_vm.Parse.parse_file (Filename.concat examples_dir f) with
         | Error e -> Alcotest.fail (f ^ ": " ^ e)
         | Ok items ->
             let code = (Asm.assemble_exn items).Asm.code in
             List.iter
               (fun (label, entry) ->
                 Printf.bprintf b "== %s %s\n" f label;
                 render_report b (analyse ~entry ~words:4096 code))
               [ ("bare", []); ("facts", facts) ]);
  (Buffer.contents b, !rejected)

let test_golden_reports () =
  let text, rejected = golden_corpus () in
  Alcotest.(check bool) "corpus holds a linker-rejected Kcallr" true
    (rejected > 0);
  Alcotest.(check string) "analyser output digest"
    "b115c04b56e0c40555624af66fea1db1" (Digest.to_hex (Digest.string text))

(* The link-time check on a looping graft: the encryption graft sealed
   and patched as the linker sees it, analysed under the linker's
   configuration. Stepping builds no closures and a merge that changes
   nothing copies no state (4,051 words when written; 8,408 before). *)
let test_link_check_alloc () =
  let kernel = Kernel.create ~mem_words:(1 lsl 16) () in
  let obj =
    Asm.assemble_exn (Vino_stream.Grafts.xor_encrypt_source ~key:0x5EC2E7)
  in
  let image =
    match Kernel.seal kernel obj with Ok i -> i | Error e -> Alcotest.fail e
  in
  let code =
    match
      Linker.patched kernel image.Vino_misfit.Image.code
        image.Vino_misfit.Image.relocs
    with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  let conf = Linker.check_config kernel ~words:(1 lsl 14) in
  let words =
    Test_jit.words_of_call (fun () ->
        ignore (Verify.analyse conf code : Report.t))
  in
  Alcotest.(check bool)
    (Printf.sprintf "link-time analysis: %.0f minor words <= 5500" words)
    true (words <= 5_500.)

let suite =
  [
    ( "verify",
      [
        Alcotest.test_case "absval join and widen" `Quick
          test_absval_join_widen;
        Alcotest.test_case "absval alu transfer" `Quick test_absval_alu;
        Alcotest.test_case "absval branch refinement" `Quick
          test_absval_refine;
        Alcotest.test_case "cfg blocks of the transform loop" `Quick
          test_cfg_blocks;
        Alcotest.test_case "cfg fall-off-end and callr" `Quick
          test_cfg_falls_off_end;
        Alcotest.test_case "crypt loop fully proved" `Quick
          test_crypt_loop_proved;
        Alcotest.test_case "provably OOB stack access rejected" `Quick
          test_oob_stack_rejected;
        Alcotest.test_case "provably below-segment access rejected" `Quick
          test_oob_negative_offset_rejected;
        Alcotest.test_case "unknown address keeps its sandbox" `Quick
          test_unknown_address_needs_sandbox;
        Alcotest.test_case "constant callable id proved" `Quick
          test_kcallr_proved_callable;
        Alcotest.test_case "unknown kcallr id rejected" `Quick
          test_kcallr_unknown_id_rejected;
        Alcotest.test_case "no callable set: conservative" `Quick
          test_kcallr_without_callable_set;
        Alcotest.test_case "direct kcall id checked" `Quick
          test_direct_kcall_checked;
        Alcotest.test_case "lint: unreachable code" `Quick
          test_lint_unreachable;
        Alcotest.test_case "lint: fall off the end" `Quick
          test_lint_fall_off_end;
        Alcotest.test_case "lint: uninitialised read" `Quick
          test_lint_uninitialised_read;
        Alcotest.test_case "lint: reserved register by stage" `Quick
          test_lint_reserved_register;
        Alcotest.test_case "lint: division by zero survivable" `Quick
          test_lint_division_by_zero_is_survivable;
        Alcotest.test_case "lint: stack imbalance" `Quick
          test_lint_stack_imbalance;
        Alcotest.test_case "callr degrades to run-time checks" `Quick
          test_callr_degrades;
        Alcotest.test_case "intra-graft call havocs state" `Quick
          test_call_havocs_fall_through;
        Alcotest.test_case "malformed programs rejected" `Quick
          test_malformed_programs;
        Alcotest.test_case "rewriter elides proven sandboxes" `Quick
          test_process_elides_proven_sandboxes;
        Alcotest.test_case "rewriter elides proven checkcall" `Quick
          test_process_elides_proven_checkcall;
        Alcotest.test_case "rewriter rejects provable OOB" `Quick
          test_process_rejects_oob;
        Alcotest.test_case "linker rejects OOB graft" `Quick
          test_linker_rejects_oob_graft;
        Alcotest.test_case "linker rejects unknown kcallr id" `Quick
          test_linker_rejects_unknown_kcallr_id;
        Alcotest.test_case "linker accepts a clean graft" `Quick
          test_linker_accepts_clean_graft;
        Alcotest.test_case "differential: crypt safe vs verified" `Quick
          test_differential_crypt;
        Alcotest.test_case "differential: wild store confined" `Quick
          test_differential_wild_store_still_confined;
        QCheck_alcotest.to_alcotest prop_differential_straight_line;
        Alcotest.test_case "golden: analyser reports over a fixed corpus"
          `Quick test_golden_reports;
        Alcotest.test_case "link-time analysis allocation" `Quick
          test_link_check_alloc;
      ] );
  ]
