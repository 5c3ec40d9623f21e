(** The kernel run queue and the schedule-delegate graft point (§4.3).

    Each user-level process has a kernel thread; when the thread is chosen
    to run, its [schedule-delegate] function runs and may return the id of
    another thread to run in its place (a client handing its timeslice to
    the database server, a UI thread handing off to the video thread). The
    default delegate returns the thread itself.

    The id returned by a delegate is looked up in the queue's table of
    live tasks, and must belong to a task that has joined the same
    scheduling group as the delegator — a graft can only affect processes
    that agreed to participate (Rule 8; Cao's principle). An invalid or
    foreign id falls back to the original choice. *)

type task

type delegate_request = {
  self : int;
  runnable : int list;  (** snapshot of the process list *)
}

type t

val create :
  Vino_core.Kernel.t ->
  ?switch_cost:int ->
  ?graft_support:bool ->
  ?delegate_budget:int ->
  unit ->
  t
(** [switch_cost] is one context switch — choose + switch kernel threads +
    switch VM context, 27 us so a switch-and-back pair costs the paper's
    54 us. [graft_support:false] removes the
    delegate indirection entirely (the measurement "base path").
    [delegate_budget] bounds one delegate invocation's cycles. Also
    registers a graft-callable function that locks the process list for
    delegate grafts (see {!proclist_lock_name}). *)

val proclist_lock : t -> Vino_txn.Lock.t
(** The process-list lock itself — the disaster rig checks it for leaked
    holders after recovery. *)

val proclist_lock_name : t -> string

val spawn_task : t -> name:string -> task
val task_id : task -> int
val remove_task : t -> task -> unit

val delegate_point :
  task -> (delegate_request, int) Vino_core.Graft_point.t

val join_group : t -> task -> group:int -> unit
(** Opt in to delegation group [group]; delegates may only redirect among
    tasks sharing a group. *)

val schedule : t -> cred:Vino_core.Cred.t -> task option
(** Pick the next task round-robin, run its delegate, validate the returned
    id, charge the context-switch cost, and return the task that actually
    gets the CPU. [None] if the queue is empty. Must run inside an engine
    process. *)

val delegate_redirects : t -> int
val invalid_delegations : t -> int
val timeslice : int
(** 10 ms, in cycles. *)
