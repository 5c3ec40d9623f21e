(** Table 6 — encryption (Stream) graft overhead.

    Workload: xor-encrypt an 8 KB buffer as it is copied to user level.
    Nearly every instruction is a load or a store, so this is the worst
    case for software fault isolation; no lock is required (the buffers
    are private to the transfer). *)

include Graft.S
