(** §4.5 — transaction failure overhead.

    The paper models total abort time as

    {v abort_overhead + unlock_cost + undo_cost  =  35us + 10us*L + c*G v}

    where [L] is the number of locks to release and [c*G] the undo cost,
    somewhat less than the graft's own cost. These harnesses measure abort
    time directly as a function of [L] and of the undo-stack depth, fit the
    line, and regenerate Table 7 (null vs full abort for all four sample
    grafts). *)

val abort_cost : ?iterations:int -> locks:int -> undo:int -> unit -> float
(** Mean abort time (us) of a transaction holding [locks] locks and [undo]
    undo records (each with a 1 us replay cost). *)

val sweep_locks :
  ?iterations:int -> ?locks:int list -> unit -> (int * float) list
(** Mean abort time of a transaction holding each of [locks] locks
    (default 0, 1, 2, 4, 8, 16 and 32) and no undo record. *)

val fit : (int * float) list -> float * float
(** Least-squares [(intercept_us, slope_us_per_lock)]. *)

val timeout_latency_bounds : unit -> int * int
(** Min and max cycles between a timeout being scheduled and firing, given
    the 10 ms tick (the paper's "between 10 and 20 ms"). *)

val table7 : ?iterations:int -> unit -> Table.row list
(** Null-abort and full-abort times for the four sample grafts, against
    the paper's Table 7. *)

val model_table : ?iterations:int -> unit -> Table.row list
(** The fitted abort-cost model against the paper's 35 + 10L equation. *)
