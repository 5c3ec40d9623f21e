(** Recovery cost by fault class: virtual elapsed time for one graft
    invocation on the stream site, healthy vs. each injected misbehaviour
    (the delta is detection + abort + removal), plus
    campaign-throughput rows in virtual time. Deterministic — no
    [~iterations]; every run replays the same seeded variants. *)

val table : unit -> Table.row list
