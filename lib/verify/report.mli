(** The verifier's output: a per-instruction safety classification plus
    structural diagnostics.

    Memory accesses ([Ld]/[St]/[Push]/[Pop]) are classified as provably
    inside the graft segment (the rewriter may elide the [Sandbox]
    sequence), needing a run-time sandbox, or provably out of bounds (a
    hard error — the linker refuses the graft). Indirect kernel calls
    ([Kcallr]) are classified likewise for the [Checkcall] probe. *)

type access_class =
  | Access_safe  (** provably in-segment for every conforming segment *)
  | Access_sandbox  (** not provable; keep the run-time sandbox *)
  | Access_oob  (** provably outside the segment: reject at link time *)

type call_class =
  | Call_safe of int
      (** this id, provably on the graft-callable list, so the
          [Checkcall] probe may be elided *)
  | Call_check  (** not provable; keep the run-time [Checkcall] *)
  | Call_bad of int  (** id provably unknown / not callable: reject *)

type insn_class =
  | Plain  (** no safety obligation *)
  | Access of access_class
  | Icall of call_class
  | Unreachable  (** never executed; no obligation, flagged as a lint *)

type severity = Error | Warning

type diag = { index : int option; severity : severity; message : string }
(** [index = None] for whole-program diagnostics. *)

type t = {
  classes : insn_class array;  (** one entry per instruction *)
  diags : diag list;  (** in program order *)
  degraded : bool;
      (** analysis gave up (computed intra-graft control flow): every
          classification is conservative *)
}

val error : ?index:int -> string -> diag
val warning : ?index:int -> string -> diag

val errors : t -> diag list
val warnings : t -> diag list

val ok : t -> bool
(** No [Error]-severity diagnostics. *)

val safe_accesses : t -> int
val total_accesses : t -> int
val safe_calls : t -> int
val total_icalls : t -> int

val unproven_access : t -> int option
(** The first reachable memory access ([Ld]/[St]/[Push]/[Pop]) not proven
    in-segment, if any. A degraded report proves none. *)

val bare_accesses : t -> Vino_vm.Insn.t array -> bool array option
(** Per pc of the analysed program: [true] at each [Ld]/[St] proven
    in-segment whose base register is not {!Vino_vm.Insn.scratch} — the
    raw accesses that may run with no sandbox. MiSFIT's sandboxed
    accesses address through the scratch register and never count.
    [None] when there is no such access. *)

val error_summary : t -> string
(** One-line rendering of the errors, for [Result.Error] payloads. *)

val pp : Format.formatter -> t -> unit
(** Summary plus every diagnostic. *)

val pp_annotated : Format.formatter -> Vino_vm.Insn.t array -> t -> unit
(** Full listing with a per-instruction verdict column ([vino verify]). *)
