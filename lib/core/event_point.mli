(** Event graft points (§3.5): dropping whole services into the kernel.

    Servers (HTTP, NFS, ...) are modelled as handlers for streams of
    external events. An event graft point corresponds to one such external
    event (a TCP connection established on a port, a UDP packet arriving).
    Unlike function graft points, grafted handlers are *added*, in an
    application-specified order, rather than replacing anything. When the
    event occurs, VINO spawns a worker thread per handler, which copies
    the event payload into the handler's segment and invokes it through
    {!Wrapper.invoke}: a transaction begins, the handler runs, and the
    worker commits when it returns. A handler whose transaction aborts is
    removed. *)

type t

val create : name:string -> ?restricted:bool -> ?budget:int -> unit -> t

val name : t -> string
val handler_count : t -> int

val add_handler :
  t ->
  Kernel.t ->
  cred:Cred.t ->
  ?order:int ->
  ?payload_words:int ->
  ?heap_words:int ->
  ?limits:Vino_txn.Rlimit.t ->
  Vino_misfit.Image.t ->
  (int, string) result
(** Returns a handler id. [order] positions the handler among those already
    added (lower runs first; default: after all). [payload_words] sizes the
    window events are copied into (default 2048). The linker analyses the
    image under {!entry_facts} and refuses a memory access it cannot
    prove in-segment unless [cred] is privileged. *)

val entry_facts :
  payload_words:int -> (Vino_vm.Insn.reg * Vino_verify.Absval.t) list
(** The entry convention {!dispatch} establishes for a handler whose
    window holds [payload_words]: r1 = the payload window at the segment
    base, r2 <= [payload_words]. Seal a handler under these facts to get
    the raw accesses {!add_handler}'s load proves. *)

val segment_words : payload_words:int -> heap_words:int -> int
(** The segment {!add_handler} asks the linker for: the payload window,
    the heap and 256 words of stack. The allocator rounds it up to a
    power of two. *)

val remove_handler : t -> Kernel.t -> int -> unit

val dispatch : t -> Kernel.t -> payload:int array -> unit
(** Deliver one event: spawn one worker process per handler (in order),
    each running its handler inside a fresh transaction. Handler entry
    convention: r1 = payload address, r2 = payload length. *)

val events_delivered : t -> int
val handler_failures : t -> int
val results : t -> (int * int) list
(** [(handler_id, r0)] pairs from the most recent dispatch, completion
    order. *)

val saver : t -> unit -> unit -> unit
(** [saver t ()] captures the handler list and statistics; the returned
    thunk restores them (re-runnable). For kernel snapshots. *)
