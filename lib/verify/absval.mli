(** Abstract values for the static graft verifier.

    The domain tracks what the verifier needs to prove SFI safety offline:
    numeric intervals (loop counters, arguments), pointers into the graft
    segment expressed as [base + offset] intervals, stack pointers expressed
    as [base + size + offset] intervals (the stack pointer starts one past
    the top of the segment), constants known to be graft-callable kernel
    function ids, and addresses already forced into the segment by a
    [Sandbox] instruction.

    Interval bounds are machine ints, which wrap like the registers they
    describe: [min_int..max_int] is the full range, which widening jumps
    to, and an addition or subtraction that overflows either bound gives
    the full range. *)

type itv = { lo : int; hi : int }
(** Inclusive interval. Invariant: [lo <= hi]. *)

val itv : int -> int -> itv
val const_itv : int -> itv
val top_itv : itv
val is_const : itv -> int option
val itv_add : itv -> itv -> itv
val itv_sub : itv -> itv -> itv
val itv_neg : itv -> itv

type t =
  | Bot  (** unreachable *)
  | Num of itv  (** plain number *)
  | Cid of int  (** constant, known graft-callable kernel-function id *)
  | Seg of itv  (** [segment.base + off], [off] in the interval *)
  | Stk of itv
      (** [segment.base + segment.size + off] — relative to the initial
          stack pointer, which points one past the segment top *)
  | InSeg
      (** provably inside the actual segment at an unknown offset (the
          result of a [Sandbox] instruction) *)
  | Top  (** unknown *)

val equal : t -> t -> bool

val join : t -> t -> t
(** Least upper bound. Mixed pointer/number kinds go to [Top]. Equal
    arguments return the first one itself. *)

val widen : t -> t -> t
(** [widen old next]: like {!join} but growing interval bounds jump to
    infinity, guaranteeing fixpoint termination. Returns [old] itself
    when [next] equals it. *)

val num : int -> t
(** Constant as a plain number. *)

val alu : Vino_vm.Insn.alu -> t -> t -> t
(** Transfer function for [Alu]/[Alui]. Pointer arithmetic: [Seg/Stk ± Num]
    stays a pointer; [Seg - Seg] (same kind) is the numeric offset
    difference; [land] with a non-negative constant mask bounds the result;
    everything else degrades conservatively. *)

val refine :
  Vino_vm.Insn.cond -> t -> t -> ((t * t) option, [ `Infeasible ]) result
(** [refine c a b] assumes [a c b] holds and tightens both values when they
    are interval-like of the same kind (or one side is numeric-constant
    comparable). [Ok None] means no refinement was possible; [Error
    `Infeasible] means the assumption contradicts the abstract values, i.e.
    the branch cannot be taken. *)

val negate_cond : Vino_vm.Insn.cond -> Vino_vm.Insn.cond

val pp : Format.formatter -> t -> unit
