(** The per-file prefetch queue and its daemon (§4.1.2).

    Prefetch requests produced by [compute-ra] are queued here and issued to
    the I/O system as buffer memory becomes available: a graft that asks for
    100 MB of read-ahead does not steal the system's pages — the requests
    trickle out at most 4 disk reads at a time and bounded by the buffer
    budget, which is a global policy normal users cannot graft. *)

type t

val create :
  Vino_sim.Engine.t ->
  cache:Cache.t ->
  disk:Disk.t ->
  ?buffer_budget:int ->
  unit ->
  t
(** [buffer_budget] caps how many prefetched-but-unread blocks may sit in
    the cache at once (default 64). *)

val push : t -> int list -> unit
(** Queue blocks for read-ahead; duplicates of resident blocks are
    dropped. *)

val note_consumed : t -> int -> unit
(** The application read this block: its buffer no longer counts against
    the prefetch budget. *)

val pending : t -> int
val issued : t -> int
val dropped : t -> int

val saver : t -> unit -> unit -> unit
(** [saver t ()] captures the prefetch queue, budget accounting and
    statistics; the returned thunk restores them (re-runnable). For
    kernel snapshots. *)
