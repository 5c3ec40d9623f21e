(** Table 4 — page-eviction (Prioritization) graft overhead.

    Workload: a VAS with a 2 MB (512-page) footprint whose application
    protects a set of hot pages via the shared window; the grafted
    per-VAS eviction policy overrules the global victim whenever it is
    hot. Every measured path includes the global victim selection. *)

include Graft.S

val measure_agreement : ?iterations:int -> unit -> float
(** The Safe path when the graft agrees with the global victim (the
    paper's 159 us case, versus 316 us when it overrules). *)
