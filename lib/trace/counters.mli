(** Named monotonic counters, one array per trace sink.

    Counters only ever increase (enforced), so a reader can difference
    two snapshots taken at any two points of a run and trust the result.
    Names are dotted [subsystem.event] slugs — see DESIGN.md §10 for the
    inventory the kernel instrumentation emits.

    Every bump goes through a {!handle}. Hashing a dotted name on every
    bump would be the dominant cost of a hot emit site, so an emit site
    interns its names once (typically at module load) into process-wide
    ids, and {!incr_h}/{!add_h} bump one slot of the sink's flat int
    array — no hashing, no allocation. *)

type t

val create : unit -> t

type handle

val handle : string -> handle
(** Intern [name]. Idempotent: the same name yields the same handle in
    every domain and for every table. *)

val handle_name : handle -> string

val incr_h : t -> handle -> unit
(** Bump by one. *)

val add_h : t -> handle -> int -> unit
(** Bump by [n] (non-negative). A zero add still lists the counter in
    {!snapshot}. No optional argument, so a call site passes the amount
    without boxing it. *)

val value : t -> string -> int
(** 0 for a counter never bumped, and for a name never interned. *)

val snapshot : t -> (string * int) list
(** Every counter bumped since {!create} or the last {!clear}, sorted by
    name. *)

val clear : t -> unit
