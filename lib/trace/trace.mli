(** The kernel-wide observability sink.

    A {!t} bundles a fixed-capacity ring of {!Span.t}s, an array of
    monotonic {!Counters}, and a per-graft cycle {!Profile}. The
    instrumented hot paths ({!Vino_core.Graft_point}, {!Vino_core.Wrapper},
    {!Vino_txn.Txn}, {!Vino_txn.Lock}, {!Vino_sim.Engine}, the fs cache)
    report through the module-level emit functions below, which write to
    the currently installed sink — or do nothing at all when none is
    installed.

    Zero-cost when disabled: tracing never calls {!Vino_sim.Engine.delay}
    or charges any virtual cycles, so with no sink installed (and equally
    with any sink installed) every measured cycle count is bit-identical
    to an uninstrumented build. While no domain has a sink installed,
    the disabled path is one atomic load and branch of host work; while
    some domain has one, it adds a domain-local lookup. The golden test
    in [test/test_trace.ml] holds Table 3 to this.

    The installed sink is {e domain-local} ([Domain.DLS]): a worker
    domain spawned by {!Vino_par.Pool} sees no sink, so parallel kernels
    cannot race on or interleave into one stream. [Vino_par.Pool.map]
    fans out only untraced work: under an installed sink it runs its
    items serially in the caller's domain, so they all report here. *)

type t

val create : ?span_capacity:int -> unit -> t
(** [span_capacity] defaults to {!default_span_capacity}. *)

val default_span_capacity : int
(** 65536 spans. *)

(** {1 Installing a sink} *)

val install : t -> unit
(** Make [t] the current sink (replacing any other). *)

val uninstall : unit -> unit

val current : unit -> t option

val enabled : unit -> bool

val with_t : t -> (unit -> 'a) -> 'a
(** Install [t], run the thunk, restore the previous sink (also on
    exceptions). Installation is domain-local. *)

(** {1 Emitting (instrumentation side)}

    All of these are no-ops when no sink is installed. *)

val span : Span.kind -> label:string -> start:int -> dur:int -> unit

(** Counter bumps: the sink lookup above, one array add — no hashing, no
    allocation. Intern the handle once at module load with
    {!Counters.handle}; [add_h] takes its non-negative amount as a bare
    [int] (no option boxing on the call site). *)

val incr_h : Counters.handle -> unit

val add_h : Counters.handle -> int -> unit
val push_frame : ctx:int -> point:string -> now:int -> unit
val charge : ctx:int -> Profile.bucket -> int -> unit
val pop_frame : ctx:int -> now:int -> unit

(** {1 Reading a sink} *)

val spans : t -> Span.t list
(** Retained spans, oldest first. *)

val spans_dropped : t -> int
val spans_total : t -> int
val counters : t -> (string * int) list
val counter_value : t -> string -> int
val profile : t -> Profile.row list
val clear : t -> unit

(** {1 Reports} *)

val pp_report : ?span_tail:int -> Format.formatter -> t -> unit
(** Per-graft cycle profile, counter inventory, and the last
    [span_tail] (default 20) spans. *)

val report_json : ?scenario:string -> t -> Json.t
(** [{ scenario; profile; counters; spans = {capacity; retained;
    dropped; tail} }] — see DESIGN.md §10 for the schema. *)
