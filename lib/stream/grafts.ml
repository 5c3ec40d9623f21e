module Asm = Vino_vm.Asm
open Vino_vm.Insn

(* r5 = loop index, r6/r8 = addresses, r7 = datum *)
let transform_loop (body : Asm.item list) : Asm.item list =
  ([
    Li (Asm.r5, 0);
    Label "loop";
    Br (Ge, Asm.r5, Asm.r3, "done");
    Alu (Add, Asm.r6, Asm.r1, Asm.r5);
    Ld (Asm.r7, Asm.r6, 0);
  ]
    : Asm.item list)
  @ body
  @ [
      Alu (Add, Asm.r8, Asm.r2, Asm.r5);
      St (Asm.r7, Asm.r8, 0);
      Alui (Add, Asm.r5, Asm.r5, 1);
      Jmp "loop";
      Label "done";
      Li (Asm.r0, 0);
      Ret;
    ]

let xor_encrypt_source ~key =
  transform_loop [ Alui (Xor, Asm.r7, Asm.r7, key) ]

let copy_source = transform_loop []
