(** Named monotonic counters, one table per trace sink.

    Counters only ever increase (enforced), so a reader can difference
    two snapshots taken at any two points of a run and trust the result.
    Names are dotted [subsystem.event] slugs — see DESIGN.md §10 for the
    inventory the kernel instrumentation emits. *)

type t

val create : unit -> t

val incr : t -> ?by:int -> string -> unit
(** [by] defaults to 1 and must be non-negative. *)

(** {1 Pre-interned handles}

    Hashing a dotted name on every bump is the dominant cost of a hot
    emit site. A {!handle} interns the name once (typically at module
    load) into a process-wide id; {!incr_h}/{!add_h} then bump a flat
    per-table int array — no hashing, no allocation — and the batched
    values fold into the string-keyed table the first time anything
    reads it. Handle and string increments to the same name always sum
    into one counter. *)

type handle

val handle : string -> handle
(** Intern [name]. Idempotent: the same name yields the same handle in
    every domain and for every table. *)

val handle_name : handle -> string

val incr_h : t -> handle -> unit
(** Bump by one. Equivalent to [incr t (handle_name h)], minus the
    hashing. *)

val add_h : t -> handle -> int -> unit
(** Bump by [n] (non-negative). No optional argument, so a call site
    passes the amount without boxing it. *)

val value : t -> string -> int
(** 0 for a counter never incremented. *)

val snapshot : t -> (string * int) list
(** Sorted by name. *)

val clear : t -> unit
