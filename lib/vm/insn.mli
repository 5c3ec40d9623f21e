(** Instruction set of the graft virtual machine.

    The graft VM is the stand-in for the paper's i386 target: grafts are
    expressed in this small RISC-like IR, the MiSFIT rewriter
    ({!Vino_misfit.Rewrite}) inserts [Sandbox] and [Checkcall] instructions
    into it, and {!Cpu} interprets it under a deterministic cycle-cost model.

    Memory is word addressed. Branch, jump and call targets are instruction
    indices into the program array (the symbolic assembler {!Asm} resolves
    labels to indices). *)

type reg = int
(** Register number, [0 <= r < num_regs]. By convention [r0] holds return
    values, [r1]..[r4] hold kernel-call arguments, {!sp} is the stack
    pointer and {!scratch} is reserved for MiSFIT-inserted sandboxing code
    (graft code must not use it; the rewriter rejects code that does). *)

val num_regs : int

val sp : reg
(** Stack-pointer register (r15). *)

val scratch : reg
(** Register reserved for SFI address sandboxing (r14). *)

type cond = Eq | Ne | Lt | Le | Gt | Ge

type alu = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr

type t =
  | Li of reg * int  (** [rd <- imm] *)
  | Mov of reg * reg  (** [rd <- rs] *)
  | Alu of alu * reg * reg * reg  (** [rd <- rs1 op rs2] *)
  | Alui of alu * reg * reg * int  (** [rd <- rs op imm] *)
  | Ld of reg * reg * int  (** [rd <- mem.(rs + off)] *)
  | St of reg * reg * int  (** [mem.(rb + off) <- rv]; [St (rv, rb, off)] *)
  | Br of cond * reg * reg * int  (** branch to index if [rs1 cond rs2] *)
  | Jmp of int
  | Call of int  (** intra-graft call; pushes return pc on the call stack *)
  | Callr of reg  (** indirect intra-graft call through a register *)
  | Ret
  | Kcall of int  (** direct call of the graft-callable kernel function [id] *)
  | Kcallr of reg  (** indirect kernel call; id taken from the register *)
  | Push of reg  (** [sp <- sp-1; mem.(sp) <- r] (lowered by the rewriter) *)
  | Pop of reg  (** [r <- mem.(sp); sp <- sp+1] (lowered by the rewriter) *)
  | Sandbox of reg  (** SFI: force the register into the graft segment *)
  | Checkcall of reg  (** SFI: abort unless the register holds a callable id *)
  | Halt

val eval_cond : cond -> int -> int -> bool

val eval_alu : alu -> int -> int -> int
(** Shift semantics are total and host-independent: a negative shift
    amount is a no-op, an amount of at least [Sys.int_size] saturates
    ([Shl] to 0, [Shr] to the sign word: -1 for negative operands, else
    0); in-range amounts are the native [lsl]/[asr].
    @raise Division_by_zero on [Div]/[Rem] with a zero divisor. *)

val is_memory_access : t -> bool
(** True for [Ld], [St], [Push] and [Pop]. *)

val map_targets : (int -> int) -> t -> t
(** Apply a function to every control-flow target (used by the rewriter to
    remap branch targets after instruction insertion). *)

val fold_registers : ('a -> reg -> 'a) -> 'a -> t -> 'a
(** [fold_registers f acc i] folds [f] over every register the
    instruction reads or writes, in operand order, without building a
    list: the one operand table the helpers below derive from. *)

val registers_used : t -> reg list
(** Every register the instruction reads or writes. *)

val registers_in_range : t -> bool
(** Every register the instruction names is in [0, num_regs). *)

val uses_scratch : t -> bool
(** The instruction names {!scratch}, the register MiSFIT reserves. *)

val validate : program_length:int -> t -> (unit, string) result
(** Check register numbers and static control-flow targets. *)

val pp : Format.formatter -> t -> unit
val pp_program : Format.formatter -> t array -> unit
