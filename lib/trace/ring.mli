(** Fixed-capacity ring buffer with oldest-first eviction.

    The observability layer must never let a long soak or disaster
    campaign exhaust memory, so both trace spans and the kernel audit
    trail retain only the newest [capacity] entries; everything older is
    evicted and counted in {!dropped}. *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity] must be positive. *)

val capacity : 'a t -> int

val push : 'a t -> 'a -> unit
(** O(1). Evicts the oldest entry (and bumps {!dropped}) when full. *)

val length : 'a t -> int
(** Entries currently retained. *)

val total : 'a t -> int
(** Entries ever pushed, including dropped ones. *)

val dropped : 'a t -> int
(** Entries evicted to make room. *)

val to_list : 'a t -> 'a list
(** Retained entries, oldest first. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Oldest first. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** Oldest first. *)

val clear : 'a t -> unit
(** Drop every entry and reset the {!total}/{!dropped} accounting. *)

val saver : 'a t -> unit -> unit -> unit
(** [saver t ()] captures the buffer and accounting; the returned thunk
    restores them in place (re-runnable). For kernel snapshots. A
    restore re-copies only the slots written since the buffer last
    matched this capture, so it costs O(pushes since), not O(capacity);
    it copies the whole buffer on the capture's first restore, after a
    restore of another capture, and after [capacity] or more writes
    ({!clear} counts as [capacity]). *)
