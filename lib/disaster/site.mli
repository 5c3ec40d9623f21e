(** Disaster sites: the five graft-point families the fault-injection
    campaigns run against (paper §4: read-ahead, page eviction, scheduling
    delegation, stream transforms, event handlers).

    A site is one fresh kernel with one family's subsystem built on it, the
    {!Injector.rig} the fault injectors aim at, and everything the
    post-recovery invariant checks need to probe. Each injection forks a
    site from its post-creation snapshot, or builds a fresh one. *)

type family =
  | Fs_readahead
  | Vmem_evict
  | Sched_delegate
  | Stream_copy
  | Net_handler

val all_families : family list
val family_name : family -> string

type t = {
  family : family;
  kernel : Vino_core.Kernel.t;
  cred : Vino_core.Cred.t;
  rig : Injector.rig;
  rig_lock : Vino_txn.Lock.t;
  state_cell : int ref;
  state_initial : int;
  locks : (string * Vino_txn.Lock.t) list;
      (** every lock an injection could leak, with a report label *)
  daemons : string list;
      (** kernel processes allowed to remain blocked after the queue drains
          (the disk and prefetch daemons idle waiting for work) *)
  healthy : Vino_vm.Asm.item list;  (** the family's well-behaved graft *)
  install : Vino_misfit.Image.t -> (unit, string) result;
  grafted : unit -> bool;
  force_remove : unit -> unit;
      (** idempotent; also turns a pinned kcall-flow check
          ([Kernel.Flow_pinned]), whose attested graph belonged to the
          removed graft, into a check of each graft's own table *)
  drive : unit -> unit;
      (** queue the family workload; caller runs the engine *)
  drive_once : unit -> unit;
      (** queue a single graft-consulting operation (measurement support) *)
  check_default : unit -> (unit, string) result;
      (** after removal: the point must serve the default path and produce
          the default's result (drives the engine itself) *)
  baseline_used_words : int;
      (** graft-segment words allocated before any graft was installed *)
}

val graft_budget : int
(** Cycle budget given to every graft invocation on a site. *)

val create : family -> t

val spawn_contender : t -> delay:int -> unit
(** Spawn an innocent transaction that takes the rig lock after [delay]
    cycles, holds it briefly and commits — the waiter whose time-out aborts
    a lock-hogging graft. Call before running the engine. *)

val pin_flow_witness : t -> Vino_vm.Asm.item list -> unit
(** Compile [witness]'s kcall-flow transition table ({!Vino_core.Linker}),
    pin it on the site's kernel ([Kernel.Flow_pinned]) — modeling an
    attested call-flow graph the installed graft must honour. Call before
    installing a {!Injector.Flow_hijack} variant.
    @raise Failure if the witness does not assemble or link. *)
