(** Table 3 — read-ahead (Black Box) graft overhead.

    Reproduces the paper's six-path decomposition for the
    application-directed [compute-ra] graft: a fixed non-sequential read
    request with the next access announced in the shared pattern buffer. *)

include Graft.S
