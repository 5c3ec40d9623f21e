(** The sparse open hash table of graft-callable function ids (§3.3).

    Indirect function calls are checked at run time by probing this table;
    through a sparse open table the paper's average cost is ten to fifteen
    cycles per indirect call. We implement genuine open addressing (linear
    probing at low load factor) and record probe counts so the measured
    average emerges rather than being asserted. *)

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
