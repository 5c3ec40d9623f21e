(* Tests for the MiSFIT SFI rewriter. *)

module Insn = Vino_vm.Insn
module Mem = Vino_vm.Mem
module Cpu = Vino_vm.Cpu
module Asm = Vino_vm.Asm
module Rewrite = Vino_misfit.Rewrite
module Verify = Vino_verify.Verify

let machine () =
  let mem = Mem.create 1024 in
  let seg = Mem.segment ~base:512 ~size:256 in
  (mem, seg)

let process_exn ?verifier code =
  match Rewrite.process ?verifier code with
  | Ok rewritten -> rewritten
  | Error e -> Alcotest.fail e

let count_sandbox code =
  Array.fold_left
    (fun acc i -> match i with Insn.Sandbox _ -> acc + 1 | _ -> acc)
    0 code

let test_reserved_register_rejected () =
  let code = [| Insn.Mov (Insn.scratch, 0); Insn.Halt |] in
  match Rewrite.process code with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "code using the sandbox register was accepted"

let test_sandbox_inserted_before_loads_and_stores () =
  let code = [| Insn.Ld (0, 1, 4); Insn.St (2, 3, 0); Insn.Halt |] in
  let rewritten = process_exn code in
  Alcotest.(check int) "one sandbox per access" 2 (count_sandbox rewritten);
  (* Every rewritten access goes through the scratch register. *)
  Array.iter
    (function
      | Insn.Ld (_, b, off) | Insn.St (_, b, off) ->
          Alcotest.(check int) "base is scratch" Insn.scratch b;
          Alcotest.(check int) "offset folded" 0 off
      | _ -> ())
    rewritten

let test_branch_targets_remapped () =
  (* A loop over a store: semantics must be identical after rewriting, with
     branch targets pointing at the expanded instruction boundaries. *)
  let mem, seg = machine () in
  let items : Asm.item list =
    [
      Li (Asm.r1, seg.Mem.base);
      Li (Asm.r2, 0);
      Li (Asm.r3, 8);
      Label "loop";
      Br (Insn.Ge, Asm.r2, Asm.r3, "out");
      Alu (Insn.Add, Asm.r4, Asm.r1, Asm.r2);
      St (Asm.r2, Asm.r4, 0);
      Alui (Insn.Add, Asm.r2, Asm.r2, 1);
      Jmp "loop";
      Label "out";
      Halt;
    ]
  in
  let obj = Asm.assemble_exn items in
  let rewritten = process_exn obj.code in
  let cpu = Cpu.make ~mem ~seg () in
  let o = Cpu.run Cpu.env_trusted cpu rewritten in
  Alcotest.(check bool) "halted" true (o = Cpu.Halted);
  for k = 0 to 7 do
    Alcotest.(check int) "store landed" k (Mem.load mem (seg.Mem.base + k))
  done

let test_wild_store_confined () =
  (* The same wild store that faults un-rewritten is silently confined to the
     graft segment after rewriting — kernel memory is untouched. *)
  let mem, seg = machine () in
  let items : Asm.item list =
    [ Li (Asm.r1, 3); Li (Asm.r2, 0xBEEF); St (Asm.r2, Asm.r1, 0); Halt ]
  in
  let obj = Asm.assemble_exn items in
  let rewritten = process_exn obj.code in
  let cpu = Cpu.make ~mem ~seg () in
  let o = Cpu.run Cpu.env_trusted cpu rewritten in
  Alcotest.(check bool) "halted, not faulted" true (o = Cpu.Halted);
  Alcotest.(check int) "kernel word 3 untouched" 0 (Mem.load mem 3);
  Alcotest.(check int) "store landed in segment" 0xBEEF
    (Mem.load mem (Mem.sandbox seg 3))

let test_push_pop_lowered () =
  let code = [| Insn.Push 1; Insn.Pop 2; Insn.Halt |] in
  let lowered = process_exn code in
  Alcotest.(check bool) "no push/pop remain" true
    (Array.for_all
       (function Insn.Push _ | Insn.Pop _ -> false | _ -> true)
       lowered);
  Alcotest.(check int) "the lowered store and load are sandboxed" 2
    (count_sandbox lowered);
  (* And behaviour is preserved through the full pipeline. *)
  let mem, seg = machine () in
  let obj =
    Asm.assemble_exn
      [ Li (Asm.r1, 77); Push Asm.r1; Pop (Asm.r0); Halt ]
  in
  let rewritten = process_exn obj.code in
  let cpu = Cpu.make ~mem ~seg () in
  ignore mem;
  let o = Cpu.run Cpu.env_trusted cpu rewritten in
  Alcotest.(check bool) "halted" true (o = Cpu.Halted);
  Alcotest.(check int) "value through stack" 77 (Cpu.reg cpu 0)

let test_indirect_kernel_calls_guarded () =
  let code = [| Insn.Li (1, 9); Insn.Kcallr 1; Insn.Halt |] in
  let rewritten = process_exn code in
  (match rewritten with
  | [| Insn.Li (1, 9); Insn.Checkcall 1; Insn.Kcallr 1; Insn.Halt |] -> ()
  | _ -> Alcotest.fail "checkcall not inserted before kcallr");
  (* Runtime: disallowed id now faults before reaching the kernel. *)
  let mem, seg = machine () in
  let cpu = Cpu.make ~mem ~seg () in
  let env = { Cpu.env_trusted with call_ok = (fun _ -> false) } in
  match Cpu.run env cpu rewritten with
  | Cpu.Faulted (Cpu.Bad_call_target 9) -> ()
  | o -> Alcotest.failf "expected guard fault, got %a" Cpu.pp_outcome o

let test_expansion_cost_bounds () =
  (* MiSFIT charges 2-5 cycles per load/store (paper §3.3): our expansion
     adds at most 3 instructions (mov/addi + sandbox) per access. *)
  let code =
    [| Insn.Ld (0, 1, 0); Insn.St (0, 1, 4); Insn.Alu (Add, 0, 0, 0);
       Insn.Halt |]
  in
  let rewritten = process_exn code in
  let growth = Array.length rewritten - Array.length code in
  Alcotest.(check bool) "growth within 2-3 insns per access" true
    (growth >= 4 && growth <= 6)

let test_proven_accesses_stay_raw () =
  (* accesses the verifier proved keep their raw instruction: r1 is the
     segment base at entry, r2 is unknown *)
  let code = [| Insn.Ld (0, 1, 0); Insn.St (0, 2, 0); Insn.Halt |] in
  let verifier =
    Verify.config ~entry:[ (1, Verify.seg_window ()) ] ~words:16 ()
  in
  let rewritten = process_exn ~verifier code in
  (match rewritten.(0) with
  | Insn.Ld (0, 1, 0) -> ()
  | _ -> Alcotest.fail "proven access lost its raw form");
  Alcotest.(check int) "only the unproven access sandboxed" 1
    (count_sandbox rewritten)

(* Property: for random straight-line store programs, rewritten execution
   never writes outside the graft segment. *)
let prop_rewritten_stores_confined =
  let open QCheck2 in
  Test.make ~name:"rewritten stores always land in segment" ~count:200
    Gen.(list_size (int_range 1 20) (pair (int_range (-2000) 2000) small_nat))
    (fun stores ->
      let mem = Mem.create 2048 in
      let seg = Mem.segment ~base:1024 ~size:512 in
      let code =
        stores
        |> List.concat_map (fun (addr, v) ->
               [ Insn.Li (1, addr); Insn.Li (2, v); Insn.St (2, 1, 0) ])
        |> fun body -> Array.of_list (body @ [ Insn.Halt ])
      in
      match Rewrite.process code with
      | Error _ -> false
      | Ok rewritten -> (
          let cpu = Cpu.make ~mem ~seg () in
          match Cpu.run Cpu.env_trusted cpu rewritten with
          | Cpu.Halted ->
              (* nothing outside the segment may be nonzero *)
              let clean = ref true in
              for a = 0 to Mem.size mem - 1 do
                if (not (Mem.in_segment seg a)) && Mem.load mem a <> 0 then
                  clean := false
              done;
              !clean
          | _ -> false))

let suite =
  [
    ( "rewrite",
      [
        Alcotest.test_case "reserved register rejected" `Quick
          test_reserved_register_rejected;
        Alcotest.test_case "sandbox inserted before loads/stores" `Quick
          test_sandbox_inserted_before_loads_and_stores;
        Alcotest.test_case "branch targets remapped" `Quick
          test_branch_targets_remapped;
        Alcotest.test_case "wild store confined to segment" `Quick
          test_wild_store_confined;
        Alcotest.test_case "push/pop lowered then sandboxed" `Quick
          test_push_pop_lowered;
        Alcotest.test_case "indirect kernel calls guarded" `Quick
          test_indirect_kernel_calls_guarded;
        Alcotest.test_case "expansion cost within paper bounds" `Quick
          test_expansion_cost_bounds;
        Alcotest.test_case "safe predicate keeps raw accesses" `Quick
          test_proven_accesses_stay_raw;
        QCheck_alcotest.to_alcotest prop_rewritten_stores_confined;
      ] );
  ]
