(** Per-graft cycle accounting.

    Each graft-point invocation opens a frame; the transaction, lock,
    undo and SFI machinery charge cycles to the innermost open frame of
    their engine process while it runs. Closing the frame folds the
    charges into a per-graft-point aggregate that splits the
    invocation's virtual cycles into four buckets:

    - [sandbox]: Sandbox/Checkcall instruction cycles (MiSFIT overhead)
    - [txn]: transaction begin/commit/abort and lock-manager charges
    - [undo]: undo-log pushes and abort-time replay
    - [body]: everything else the invocation spent, excluding nested
      graft invocations (those are accounted to their own point)

    Frames are keyed by the simulation process id, so charges made by a
    concurrent process never land in a blocked invocation's frame. *)

type bucket = Sandbox | Txn | Undo

type row = {
  point : string;
  invocations : int;
  total : int;  (** cycles, nested invocations excluded *)
  sandbox : int;
  txn : int;
  undo : int;
  body : int;  (** [total - sandbox - txn - undo] *)
}

type t

val create : unit -> t

val push_frame : t -> ctx:int -> point:string -> now:int -> unit
(** Open an invocation frame for engine process [ctx]. *)

val charge : t -> ctx:int -> bucket -> int -> unit
(** Charge cycles to process [ctx]'s innermost frame; ignored if the
    process has no open frame. *)

val pop_frame : t -> ctx:int -> now:int -> unit
(** Close the innermost frame and fold it into the aggregates. The
    frame's full duration is subtracted from the parent frame's totals
    (as a nested invocation) if one is open. *)

val rows : t -> row list
(** Sorted by point name. *)

val pp : Format.formatter -> t -> unit
