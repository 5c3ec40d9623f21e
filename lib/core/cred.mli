(** Credentials a graft runs with.

    A graft runs with the user identity of the process that installs it
    (§3.3); graft-callable functions check this identity before touching
    files, memory or devices, so the graft's protection domain equals its
    installer's. Privileged users (uid 0) may additionally graft restricted
    global policy points (§2.3). *)

type t = { uid : int; user : string; limits : Vino_txn.Rlimit.t }

val root : t
(** The privileged kernel identity, with unlimited resources. *)

val user : string -> limits:Vino_txn.Rlimit.t -> t
(** An ordinary user with a fresh non-zero uid. *)

val is_privileged : t -> bool
val pp : Format.formatter -> t -> unit
