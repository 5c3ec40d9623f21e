(** Registry of kernel functions reachable from grafts.

    VINO kernel developers maintain a list of graft-callable functions
    (§3.3). Every registered function has an id (what [Kcall]/[Kcallr]
    instructions name) and a [callable] flag: functions that return private
    data, change state unrecoverably (e.g. [shutdown]) or are otherwise off
    the list are registered with [callable = false] so the linker, MiSFIT's
    run-time [Checkcall] probe and the dispatcher all reject them (Rules 4,
    6, 7). The registry is the one graft-callable list: all three read it
    through {!callable}.

    Implementations receive a {!ctx}: the graft's CPU state (to read
    argument registers and write results), the invocation's transaction (so
    accessor functions can push undo records) and the credentials the graft
    runs with (so they can perform the same permission checks system calls
    do). Kernel-side work should be charged to the engine clock with
    {!Vino_sim.Engine.delay}. *)

type ctx = {
  cpu : Vino_vm.Cpu.t;
  txn : Vino_txn.Txn.t option;
  cred : Cred.t;
  limits : Vino_txn.Rlimit.t;  (** effective limits (the graft's, §3.2) *)
}

type impl = ctx -> Vino_vm.Cpu.kstatus

type fn = private {
  id : int;
  name : string;
  mutable callable : bool;  (** mutate via {!set_callable} only *)
  impl : impl;
}

type registry

val create : unit -> registry

val register : registry -> name:string -> ?callable:bool -> impl -> fn
(** [callable] defaults to [true].
    @raise Invalid_argument on duplicate names. *)

val find : registry -> int -> fn option
val find_by_name : registry -> string -> fn option

val callable : registry -> int -> bool
(** Whether [id] names a registered function on the graft-callable list.
    Allocates nothing. *)

val set_callable : registry -> int -> bool -> unit
(** Re-flag an already-registered function (an operator pulling a function
    off — or restoring it to — the graft-callable list at run time).
    @raise Invalid_argument on an unknown id. *)

val id_limit : registry -> int
(** One past the highest assigned id (ids are dense from 0): the row space
    a kcall-flow transition table built now must cover. *)

val epoch : registry -> int
(** Names the registry's current state: its registrations and callable
    flags. {!register} and {!set_callable} take a fresh epoch, and so
    does a {!saver} restore that changes a registration or a flag. Fresh
    epochs come from one process-wide counter that nothing rewinds, so
    two different states never share an epoch, in this registry or any
    other. The linker keys its cached verdicts by it
    ({!Kernel.link_verdict}). *)

val names : registry -> string list

val saver : registry -> unit -> unit -> unit
(** [saver r ()] captures the registration lists and every function's
    [callable] flag; the returned thunk restores them (re-runnable):
    functions registered since the capture no longer resolve by name or
    id, their names may be registered again, and ids are reassigned from
    the captured {!id_limit}. The {!epoch} is not captured: a restore
    that finds the registry already in the captured state keeps it, and
    any other takes a fresh one. For kernel snapshots. *)

(* Argument/result register conventions. *)

val arg : Vino_vm.Cpu.t -> int -> int
(** [arg cpu k] reads argument [k] (0-based, registers r1..r4). *)

val return : Vino_vm.Cpu.t -> int -> unit
(** Write the function result into r0. *)

val ok : Vino_vm.Cpu.kstatus
val abort : string -> Vino_vm.Cpu.kstatus
