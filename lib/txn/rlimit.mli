(** Per-thread resource limits for quantity-constrained resources (§3.2).

    Every thread carries a set of limits on the amounts of various resources
    it may consume. A freshly installed graft has limits of zero; the
    installing thread may {!transfer} headroom from its own limits to the
    graft, or {!delegate} so the graft's allocations are billed against the
    installer's own limits — analogous to ticket delegation in lottery
    scheduling. When a graft is invoked, the kernel swaps the thread's
    limits for the graft's, so the ordinary enforcement path covers grafts
    with no extra machinery. *)

type resource = Memory_words | Net_packets

val all_resources : resource list
val resource_name : resource -> string

type t

val create : ?memory_words:int -> ?net_packets:int -> unit -> t
(** Unspecified resources default to 0. *)

val zero : unit -> t
(** The limits a newly installed graft starts with: all zero. *)

val unlimited : unit -> t

val delegate : t -> t
(** A handle that shares the underlying accounts: consumption through the
    delegate is billed against the delegator (and vice versa). *)

val same_account : t -> t -> bool

val limit : t -> resource -> int
val used : t -> resource -> int
val available : t -> resource -> int

val request : t -> resource -> int -> (unit, [ `Denied ]) result
(** Debit usage; denied if it would exceed the limit. Amounts <= 0 are
    invalid. *)

val release : t -> resource -> int -> unit
(** Credit usage back. Releasing more than is used clamps to zero. *)

val transfer : src:t -> dst:t -> resource -> int -> (unit, [ `Denied ]) result
(** Move limit headroom from [src] to [dst]. Denied if [src] would end up
    with a limit below its current usage, or if the handles share an
    account (transfer would be meaningless). *)

val derive :
  parent:t ->
  ?memory_words:int ->
  ?net_packets:int ->
  unit ->
  (t, [ `Denied ]) result
(** A fresh child account funded by {!transfer}s out of [parent]:
    resource-limit inheritance for multi-tenant admission. The sum of
    limits across parent and children is invariant, so a runaway child
    is capped at its granted slice and cannot dip into a sibling's.
    Denied (with [parent] rolled back to its prior state) if any
    requested amount exceeds the parent's free headroom. Unspecified
    resources default to 0.
    @raise Invalid_argument on a negative amount. *)

val pp : Format.formatter -> t -> unit

val saver : t -> unit -> unit -> unit
(** [saver t ()] captures the account's limits and uses; the returned
    thunk restores them in place (re-runnable). For kernel snapshots. *)
