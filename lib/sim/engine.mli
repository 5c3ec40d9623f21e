(** Discrete-event simulation engine: the machine-dependent substrate.

    The engine plays the role the NetBSD locore/pmap layer plays for VINO:
    it provides a virtual clock (in cycles at {!Vino_vm.Costs.mhz}),
    preemptible kernel threads (cooperative coroutines implemented with
    OCaml effects), and schedulable timeouts. All kernel subsystems — the
    lock manager, the page daemon, the disk — are processes on this engine,
    so lock timeouts, graft CPU quotas and I/O latencies all interleave in
    one deterministic timeline.

    Simultaneous events execute in FIFO spawn/schedule order, which makes
    every experiment reproducible.

    {b Cost model.} Events scheduled before the first event runs, or
    after a {!restore}, form a run sorted once and popped at O(1); later
    events enter a heap as deep as the events in flight ({!Pqueue}). A
    process owns its wake entry, its parked continuation and a
    generation, which every resume and every {!kill} of a parked process
    bumps: outdated entries and wakers are stale, with no cancel closure.
    One effect handler serves all processes. A delay is one
    perform/continue round trip and one heap push and pop, and allocates
    at most 12 minor words; a spawn and exit at most 40. *)

type t

type cancel = unit -> unit
(** Cancel a scheduled event; idempotent. *)

exception Stopped
(** Raised inside a process killed with {!kill}. *)

val create : unit -> t

val now : t -> int
(** Current virtual time in cycles. *)

val now_us : t -> float

val at : t -> int -> (unit -> unit) -> cancel
(** [at t time f] runs [f] at absolute virtual [time] (>= [now]). *)

val after : t -> int -> (unit -> unit) -> cancel

type proc
(** Handle on a spawned process. *)

val spawn : t -> ?name:string -> (unit -> unit) -> proc
(** Create a process; its body starts when the engine reaches the current
    time slot. Inside the body, {!delay}, {!suspend} and {!self} may be
    used. An uncaught exception in the body is recorded (see {!failures}). *)

val proc_id : proc -> int
val alive : proc -> bool

val kill : t -> proc -> unit
(** Make the process raise {!Stopped} at its next suspension point (if it is
    blocked, it is woken immediately, and only once). A crude mechanism;
    transaction abort (the paper's mechanism) is layered above in
    {!Vino_txn.Txn}. *)

(* Within a process: *)

val delay : int -> unit
(** Advance this process's virtual time by the given number of cycles. *)

val suspend : (('a -> unit) -> unit) -> 'a
(** [suspend f] blocks the calling process. [f waker] is called immediately;
    the process resumes with [v] when some other event calls [waker v].
    Later calls of the waker, even during a later suspension, are ignored,
    which lets a timeout and a signal race safely. *)

val self : t -> proc
(** The running process. Raises [Invalid_argument] outside a process. *)

val run : ?until:int -> t -> unit
(** Execute events in time order until the queue drains (or [until] is
    passed). Returns normally even if processes remain blocked (deadlock);
    use {!blocked} to detect that. *)

val failures : t -> (string * exn) list
(** Processes that died with an uncaught exception, oldest first. *)

val has_run : t -> bool
(** Whether {!run} has ever executed an event on this engine. *)

type snap
(** Captured pre-run engine state: clock, process table, and the pending
    event queue in insertion order. *)

val snapshot : t -> snap
(** Capture a never-run engine. Raises [Invalid_argument] once {!run}
    has executed any event — after that, processes may hold parked
    one-shot continuations, which cannot be forked. Before the first step
    every process is unstarted and the queue holds only timers and start
    entries, so the capture is a faithful fork point. *)

val restore : t -> snap -> unit
(** Rewind the engine to the snapshot: clock, processes (flags reset, a
    new generation each) and event queue are restored; the engine may then
    {!run} again. Safe to call repeatedly with the same snapshot. *)

val blocked : t -> string list
(** Names of processes that are alive but have no pending event — after
    {!run} drains the queue these are deadlocked. *)
