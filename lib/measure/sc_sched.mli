(** Table 5 — scheduling (Prioritization) graft overhead.

    Workload: 64 runnable processes; the measured delegate locks and scans
    the 64-entry process list and returns its own id. The base path is the
    cost of switching processes twice (select + switch + switch back). *)

include Graft.S
