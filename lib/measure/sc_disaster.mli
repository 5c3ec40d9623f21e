(** Recovery cost by fault class: virtual elapsed time for one graft
    invocation on the stream site, healthy vs. each injected misbehaviour
    (the delta is detection + abort + removal), plus
    campaign-throughput rows in virtual time. Deterministic — no
    [~iterations]; every run replays the same seeded variants. *)

val table : ?pool:Vino_par.Pool.t -> unit -> Table.row list
(** With [?pool], the healthy row and the per-injector rows fan out
    across domains; rows are identical at any pool size. *)
