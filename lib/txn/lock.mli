(** Time-out–based kernel locks (paper §3.1, §3.2).

    Locks are the time-constrained resources: holding one is harmless until
    somebody else wants it. Every lockable resource type carries a time-out
    saying how long it may be held under contention. A blocked request
    schedules that time-out (on 10 ms clock-tick boundaries, §4.5); if it
    expires and a holder is executing a transaction, that holder's
    transaction is asked to abort — which releases the lock and lets the
    rest of the system make progress. This also implicitly breaks deadlocks.

    Acquisition charges virtual cycles to the calling engine process:
    a conventional mutex price for plain threads, plus the transaction-lock
    surcharge (§4.6) when the owner is abortable, plus one
    policy-indirection charge per encapsulated decision point (Fig 4/5). *)

type owner = {
  name : string;
  request_abort : (string -> unit) option;
      (** [Some f] iff the owner is executing a transaction; [f reason]
          asks that transaction to abort at its next poll point. *)
}

val plain_owner : string -> owner
(** A non-transactional kernel thread: cannot be aborted by waiters. *)

type t
type held
(** Evidence of a granted acquisition; needed to release. *)

type outcome =
  | Granted of held
  | Gave_up of string
      (** the caller's own transaction was asked to abort while waiting, or
          {!fruitless_timeout_bound} consecutive time-outs found no
          abortable holder (waiting longer could never succeed) *)

val fruitless_timeout_bound : int
(** How many consecutive time-outs finding no abortable holder a waiter
    tolerates before {!acquire} returns [Gave_up]. A wake (some holder
    released) resets the count. *)

val create :
  Vino_sim.Engine.t ->
  wheel:Vino_sim.Tick.t ->
  ?policy:Lock_policy.t ->
  ?timeout:int ->
  name:string ->
  unit ->
  t
(** [timeout] is the per-resource-type hold time-out in cycles (default
    1 ms). [policy] defaults to {!Lock_policy.reader_priority}. Costs
    are {!Tcosts.default}. *)

val acquire :
  t ->
  Lock_policy.mode ->
  owner ->
  ?poll:(unit -> string option) ->
  unit ->
  outcome
(** Block until granted. While blocked, each expiry of the lock's time-out
    asks every abortable holder's transaction to abort, then keeps waiting;
    after {!fruitless_timeout_bound} consecutive expiries with no abortable
    holder it returns [Gave_up] instead of livelocking. [poll] is consulted
    at every wake-up so a waiter whose own transaction has been aborted
    gives up promptly. Must run inside an engine process. *)

val release : ?during_abort:bool -> held -> unit
(** [during_abort] selects the abort-path cost (~10 us per lock, §4.5). *)

val reassign : held -> owner -> unit
(** Re-point a held lock at a new owner. Used when a nested transaction
    commits and its locks merge into the parent: the lock is then held by
    the parent, and a time-out must ask the {e parent} to abort — the
    committed child's [request_abort] is a no-op (§3.1, §3.2). *)

val name : t -> string
val timeout : t -> int
val policy : t -> Lock_policy.t

val holders : t -> (string * Lock_policy.mode) list
val waiters : t -> (string * Lock_policy.mode) list

(* Statistics for the experiment harness. *)

val acquisitions : t -> int
val contentions : t -> int
val timeouts_fired : t -> int
val holder_aborts_requested : t -> int

val fruitless_giveups : t -> int
(** How many waiters gave up because no holder was ever abortable. *)

val saver : t -> unit -> unit -> unit
(** [saver t ()] captures the statistics; the returned thunk
    restores them and empties the holder/waiter lists (re-runnable).
    For kernel snapshots, which are only taken on never-run engines
    where both lists are empty anyway. *)
