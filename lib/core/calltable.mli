(** A sparse open hash set of non-negative ids, after the paper's table
    of graft-callable function ids (§3.3), whose probe for an indirect
    call costs ten to fifteen cycles on average. We implement genuine open
    addressing (linear probing at low load factor) and record probe counts
    so the measured average emerges rather than being asserted.

    The graft-callable list itself is the kernel's registry
    ({!Kcall.callable}); the scheduler keeps its valid thread ids here. *)

type t

val create : ?initial_slots:int -> unit -> t
val add : t -> int -> unit
val remove : t -> int -> unit

val mem : t -> int -> bool
(** Probe for an id, recording the probe count. *)

val cardinal : t -> int
val load_factor : t -> float

val average_probes : t -> float

val saver : t -> unit -> unit -> unit
(** [saver t ()] captures slots and statistics ({!mem} mutates both);
    the returned thunk restores them (re-runnable). For kernel
    snapshots. *)
