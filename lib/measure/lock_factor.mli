(** Figures 4/5 — the cost of policy factoring in the lock manager.

    The conventional [get_lock] (Fig 4) hard-codes reader-priority granting
    and append-order queueing; the fully-factored version (Fig 5) consults
    an encapsulated policy at each decision point, paying one ~35-cycle
    function call per point ("these add up remarkably quickly", §6). This
    harness measures the per-acquire difference and demonstrates the
    behavioural payoff: a grafted queueing policy (fifo-fair) changes who
    gets the lock. *)

val uncontended_cost : ?iterations:int -> factored:bool -> unit -> float
(** Mean acquire+release cost (us) for a plain thread, conventional or
    factored lock manager. *)

val indirection_cost_us : unit -> float
(** The modelled cost of the two decision-point calls. *)

val contended_trace :
  policy:Vino_txn.Lock_policy.t -> unit -> string list
(** Run the reader/writer/late-reader scenario and report the grant order —
    reader-priority lets the late reader overtake; fifo-fair does not. *)

val table : ?iterations:int -> unit -> Table.row list
