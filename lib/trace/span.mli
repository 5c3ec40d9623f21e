(** Trace spans: timed intervals on the simulation's virtual clock.

    A span records that some named piece of kernel machinery ran for
    [dur] cycles ending around [start + dur]. Spans carry no host-time
    information at all — both endpoints are virtual cycles at
    {!Vino_vm.Costs.mhz} — so a same-seed re-run of any workload
    produces a bit-identical span stream. *)

type kind =
  | Graft_invoke  (** whole graft-point invocation (graft installed) *)
  | Dispatch  (** graft-point indirection, grafted or not *)
  | Sfi_sandbox  (** aggregate Sandbox-instruction cycles of one exec *)
  | Sfi_checkcall  (** aggregate Checkcall-instruction cycles of one exec *)
  | Txn_begin
  | Txn_commit
  | Txn_abort
  | Undo_replay  (** undo-log replay during an abort *)
  | Lock_acquire  (** the acquisition charge itself *)
  | Lock_wait  (** blocked time between enqueue and grant/give-up *)
  | Lock_timeout  (** a lock time-out fired (instantaneous) *)

val kind_name : kind -> string

type t = {
  kind : kind;
  label : string;  (** graft point, transaction or lock name *)
  start : int;  (** virtual cycles *)
  dur : int;  (** virtual cycles *)
}

val pp : Format.formatter -> t -> unit
