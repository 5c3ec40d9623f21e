(** The outbound network path, flood-proofed (§2.2: grafts can "flood the
    network with packets").

    Two protections compose here:

    - packets are a quantity-constrained resource: each send debits the
      calling graft's {!Vino_txn.Rlimit.resource} [Net_packets] quota, so a
      flooder with zero (or exhausted) limits is refused;
    - a send is an externally visible action that cannot be undone, so the
      actual transmission is *deferred to commit* ({!Vino_txn.Txn.defer}):
      packets queued by a transaction that aborts never reach the wire,
      and the quota debited for them is released by the undo log. *)

type t

val create : Vino_core.Kernel.t -> unit -> t
(** Registers the graft-callable function ["net.send"] (argument r1 =
    destination tag; returns 1 = queued, 0 = quota denied) and starts the
    NIC transmit process, which puts one packet on the wire every 12 us. *)

val send_from_kernel : t -> dest:int -> unit
(** Trusted kernel-side send (no quota, immediate queueing). *)

val transmitted : t -> int
(** Packets that actually left on the (simulated) wire. *)

val transmitted_to : t -> dest:int -> int
val quota_denials : t -> int
val queue_depth : t -> int
