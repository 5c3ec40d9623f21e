(** A small OCaml 5 domain pool with deterministic work distribution.

    Items are claimed dynamically from an atomic counter (so fast workers
    take more items), but every result is written into a preallocated slot
    indexed by the item's position and the slots are read back in index
    order — the output of {!map} is a pure function of the input list,
    independent of how the items were scheduled across domains.

    A pool of [domains = 1] never spawns a domain and never touches an
    atomic: {!map} is exactly [List.map], byte-for-byte the serial code
    path. This is what [-j 1] means on the CLIs.

    Only untraced work fans out. When the calling domain has a
    {!Vino_trace.Trace} sink installed, {!map} is [List.map] under that
    sink, so a traced run records exactly what a serial run records, at
    any pool size. Worker domains never see a sink: it is domain-local.

    {!map} is not reentrant: calling it from inside a worker of the same
    pool (a nested fan-out) raises [Invalid_argument]. The caller's
    domain participates in every batch, so a pool created with
    [~domains:n] uses at most [n] domains in total including the
    caller. *)

type t

val create : ?domains:int -> unit -> t
(** [create ~domains ()] spawns [domains - 1] worker domains (the caller
    is the remaining member). [domains] defaults to
    [Domain.recommended_domain_count ()] and is clamped to at least 1. *)

val domains : t -> int
(** Total members, including the calling domain. *)

val map : ?pool:t -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~pool f items] applies [f] to every item, fanning out across the
    pool's domains, and returns the results in input order. Without
    [?pool], with a 1-domain pool, or with a trace sink installed in the
    calling domain, this is exactly [List.map f items].

    If any application raises, the exception of the lowest-indexed
    failing item is re-raised (with its backtrace) after the whole batch
    has drained; other results are discarded. *)

val shutdown : t -> unit
(** Join the worker domains. The pool degrades to the serial path
    afterwards; calling [shutdown] twice is harmless. *)
