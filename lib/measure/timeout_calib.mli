(** Experimental determination of per-resource lock time-outs.

    The paper: "Because resource requirements vary tremendously, reasonable
    time-out intervals must be determined (experimentally) on a
    per-resource-type basis" (§3.2), and "we expect to experimentally
    determine a more appropriate timing as the system matures" (§4.5).

    This harness runs a well-behaved contention workload against a lock,
    records hold times, and recommends a time-out at a safety factor above
    the observed tail — long enough that honest holders are never aborted,
    short enough to bound the damage of a hoarder. {!validate} then replays
    the workload (plus one hog) under the recommended time-out and reports
    false aborts and hog-recovery latency. *)

type workload = {
  holders : int;  (** concurrent well-behaved lock users *)
  hold_cycles : int -> int;  (** hold time of the k-th acquisition *)
  think_cycles : int;  (** gap between acquisitions *)
  rounds : int;  (** acquisitions per holder *)
}

val page_io_workload : workload
(** Page-style locks: held for tens of ms during I/O. *)

val bitmap_workload : workload
(** Free-space-bitmap-style locks: held a few hundred instructions. *)

type recommendation = {
  observed_p99_us : float;
  observed_max_us : float;
  recommended_timeout_us : float;  (** max observed x 2 *)
}

val calibrate : workload -> recommendation
(** Run the workload on a fresh kernel and derive a time-out: twice the
    longest hold observed. *)

type validation = {
  false_aborts : int;  (** honest transactions aborted by the time-out *)
  hog_recovery_us : float;
      (** time from a hog grabbing the lock to an honest waiter getting it *)
}

val validate : workload -> timeout_us:float -> validation
(** Replay the workload with every holder transactional under the given
    time-out, then inject a never-releasing hog and measure recovery. *)

val table : unit -> Table.row list
