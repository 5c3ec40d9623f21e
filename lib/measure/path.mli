(** The six measured code paths of Table 2, plus two of ours: [Verified]
    runs the full graft under MiSFIT with the static verifier's verdicts
    applied, so provably-safe loads, stores and indirect calls keep their
    raw instructions — the gap between [Safe] and [Verified] is the SFI
    overhead the offline analysis recovers. [FlowChecked] is [Safe] with
    kcall-flow integrity enforced at dispatch: one transition-table bit
    test per kernel call — the gap above [Safe] is that check's cost. *)

type t =
  | Base  (** graft support and indirection removed *)
  | Vino  (** normal kernel path: indirection + return-value verification *)
  | Null  (** graft stubs, transaction begin/commit, minimal graft *)
  | Unsafe  (** full graft code and lock overhead, no MiSFIT *)
  | Safe  (** full graft code protected with MiSFIT *)
  | Verified  (** MiSFIT with statically-proven checks elided *)
  | FlowChecked  (** MiSFIT plus the kcall-flow transition check *)
  | Abort  (** complete safe path, transaction abort instead of commit *)

val all : t list
val name : t -> string
