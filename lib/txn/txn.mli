(** The lightweight kernel transaction system (paper §3.1).

    Every graft invocation runs inside a transaction so the kernel can
    spontaneously abort it and clean up its state. The mechanism is simpler
    than a data manager's: the log is transient and undo-only, so of the
    ACID properties only atomicity, consistency and isolation are provided.
    Two-phase locking holds every lock acquired under a transaction until
    commit or abort. Because grafts may indirectly invoke other grafts,
    transactions nest: a nested commit merges its undo stack and locks into
    its parent; a nested abort undoes only its own work.

    Aborts are requested asynchronously (by a lock time-out, a resource
    quota, or an operator) and take effect when the transaction's thread
    reaches a poll point — a graft VM poll, a lock operation, or commit. *)

type mgr
(** The default VINO transaction manager. *)

type t

type state = Active | Committed | Aborted of string

val create_mgr : Vino_sim.Engine.t -> wheel:Vino_sim.Tick.t -> unit -> mgr
(** A manager charging {!Tcosts.default}. Each frame preallocates 64
    undo-log entries: transactions pushing at most that many never grow
    their log, so a recycled frame runs allocation-free. *)

val engine : mgr -> Vino_sim.Engine.t
val wheel : mgr -> Vino_sim.Tick.t
val costs : mgr -> Tcosts.t

val begin_ : mgr -> ?parent:t -> name:string -> unit -> t
(** Allocate a transaction object associated with the calling thread and
    charge the begin cost. [parent] must be [Active] and on the same
    manager. Must run inside an engine process. The transaction counts
    as live ({!live}), and as [parent]'s active child, only once the
    charge is paid, so a kill during it leaves nothing to resolve. *)

val id : t -> int
val name : t -> string
val state : t -> state
val is_active : t -> bool
val parent : t -> t option
val undo_depth : t -> int
val locks_held : t -> int

val defer : t -> (unit -> unit) -> unit
(** Register an action to run only when the top-level transaction commits —
    the paper's "delaying deletes until transaction abort [is ruled out]"
    work-around (§6): an accessor that frees a kernel object must not free
    it while an abort could still resurrect it, so the actual delete is
    deferred to commit. Deferred work merges into the parent on nested
    commit and is dropped on abort.
    @raise Invalid_argument if the transaction is not active. *)

val push_undo : t -> ?cost:int -> label:string -> (unit -> unit) -> unit
(** Record the inverse of a kernel-state change (called by accessor
    functions, §3.1). Charges the undo bookkeeping cost.
    @raise Invalid_argument if the transaction is not active. *)

val commit : t -> (unit, string) result
(** If an abort was requested, performs the abort instead and returns
    [Error reason]. A top-level commit releases all locks and discards the
    undo stack; a nested commit merges both into the parent and re-points
    the merged locks at the parent's {!owner} (so a later time-out aborts
    the transaction that actually holds them). Deferred actions run last,
    after the transaction is marked [Committed] and the counters are
    balanced; an action that raises is recorded ({!deferred_failures}) and
    skipped — the commit still returns [Ok ()], because the transaction's
    own effects are already permanent. Fails (raises [Invalid_argument]) if
    children are still active. Once it has decided to commit, a kill at
    any of its delays leaves a transaction that {!settle} finishes, and
    the transaction no longer counts as its parent's active child. *)

val abort : t -> reason:string -> unit
(** Replay the undo stack (most recent first), release held locks at
    abort-path cost, and mark the transaction aborted. Total: an undo entry
    that raises is recorded ({!undo_failures}) and the remaining entries
    still run, so the locks are always released and the transaction always
    resolves. Idempotent on an already-aborted transaction. Like
    {!commit}, it stops counting as its parent's active child before its
    first delay, so a kill there never keeps the parent from resolving. *)

val settle : t -> reason:string -> unit
(** Resolve a transaction whose own process can no longer do it, because
    it was killed ({!Vino_sim.Engine.Stopped}) part-way. A commit already
    under way is finished, because its decision was final; its locks are
    then released, and its deferred actions run, in the calling process.
    Anything else still active is aborted with [reason], and an abort
    the kill interrupted completes. No-op on a resolved transaction. Must
    run inside an engine process that is not being killed. *)

val request_abort : t -> string -> unit
(** Asynchronous abort request; honoured at the next poll point. The first
    request wins. No-op once the transaction is resolved. *)

val abort_requested : t -> string option

val poll : t -> unit -> string option
(** Poll function for {!Vino_vm.Cpu.env} and {!Lock.acquire}: returns the
    pending abort reason, checking this transaction and all ancestors
    (a holder time-out on a lock acquired before the graft was invoked must
    still stop the graft, §3.2). *)

val owner : t -> Lock.owner
(** Lock-manager identity: waiters that time out on a lock held by this
    transaction will {!request_abort} it. *)

val with_lock :
  t -> Lock.t -> Lock_policy.mode -> (unit -> 'a) -> ('a, string) result
(** Acquire under two-phase locking (released at commit/abort, not after
    [f]). [Error reason] if the acquisition gave up because this
    transaction was asked to abort. The caller is expected to abort on
    error. *)

val acquire_lock : t -> Lock.t -> Lock_policy.mode -> (unit, string) result
(** Bare 2PL acquisition without a body. *)

val current : mgr -> t option
(** The transaction the calling engine process is executing under, if any —
    the context graft invocations nest into (§3.1: "graft functions may
    indirectly invoke other grafts ... nested transactions"). Set by the
    invocation wrapper via {!with_current}. Must run inside an engine
    process. *)

val with_current : mgr -> t -> (unit -> 'a) -> 'a
(** Run a computation with [t] as the calling process's current
    transaction, restoring the previous binding afterwards (also on
    exceptions). *)

val recycle : t -> unit
(** Return a resolved frame to the manager's arena; the next {!begin_}
    reuses it (and its preallocated undo log) in place of a fresh
    allocation. Only for owners certain that no reference to [t]
    survives the call — the graft invocation path, which creates and
    resolves its transaction internally, recycles every frame; code
    that hands transaction handles outward just lets the GC take them.
    Idempotent on an already-recycled frame.
    @raise Invalid_argument if [t] is still active. *)

val frames_outstanding : mgr -> int
(** Frames taken from the arena (or freshly built) and not yet
    recycled. The disaster-rig invariant: balanced begin/recycle
    traffic keeps this at the live-transaction count. *)

val frames_retained : mgr -> int
(** Frames parked in the arena, ready for reuse. *)

(* Manager-wide statistics. *)

val begins : mgr -> int
val commits : mgr -> int
val aborts : mgr -> int
val live : mgr -> int

val undo_live : mgr -> int
(** Undo entries currently held by unresolved transactions. Zero whenever
    [live = 0]: every abort replayed its log and every top-level commit
    discarded its merged log — the disaster-rig "undo logs empty"
    invariant. *)

val undo_failures : mgr -> int
(** Undo entries that raised during an abort's replay (the fault-mid-undo
    disaster: recorded, skipped, and the abort still completed). *)

val deferred_failures : mgr -> int
(** Deferred actions that raised at top-level commit (recorded and skipped;
    the commit still succeeded). *)

val saver : mgr -> unit -> unit -> unit
(** [saver m ()] captures the manager's counters; the returned thunk
    restores them and clears the per-process current-transaction map.
    The frame arena deliberately stays warm across restores (reuse
    changes no observable counter or cost). For kernel snapshots. *)
