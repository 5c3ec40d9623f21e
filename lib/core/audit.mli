(** Kernel audit trail for graft security events.

    Every decision the protection machinery takes — image rejected,
    graft installed, transaction aborted, graft forcibly removed — is
    recorded with its virtual timestamp, so an operator (or a test) can
    reconstruct exactly how a disaster was survived.

    The trail is a fixed-capacity ring: a long soak or a disaster
    campaign cannot grow it without bound. When full, the oldest entry
    is evicted and counted in {!dropped}. Each recorded event also bumps
    the matching ["audit.<kind>"] counter in {!Vino_trace.Trace}, so the
    trail and the observability counters stay unified. *)

type event =
  | Load_rejected of { point : string; reason : string }
  | Graft_installed of { point : string; user : string }
  | Graft_removed of { point : string }
  | Graft_failed of { point : string; reason : string }
  | Handler_added of { point : string; handler : int; user : string }
  | Handler_failed of { point : string; handler : int; reason : string }
  | Flow_violation of { point : string; last : string; next : string }
      (** a graft attempted kcall [next] when the static kcall-flow table
          permits no [last]→[next] transition; [last] is ["<entry>"] when
          no kernel call had been made yet *)
  | Admission_rejected of { point : string; tenant : string; reason : string }
      (** the admission controller refused a request at [point] on
          behalf of [tenant] — e.g. the multi-tenant serve scenario's
          per-tenant in-flight cap. Counted as a failure: an operator
          reading the trail sees exactly which tenants were shed. *)

type entry = { at_us : float; event : event }
type t

val default_capacity : int
(** 4096 entries. *)

val create : ?capacity:int -> unit -> t
(** [capacity] must be positive (default {!default_capacity}). *)

val record : t -> now_us:float -> event -> unit

val entries : t -> entry list
(** Retained entries, oldest first. *)

val count : t -> int
(** Entries currently retained. *)

val capacity : t -> int

val total : t -> int
(** Events ever recorded, including evicted ones. *)

val dropped : t -> int
(** Events evicted to make room. *)

val clear : t -> unit
(** Drop every entry and reset {!total}/{!dropped}. *)

val failures : t -> entry list
(** Only rejections/failures. *)

val saver : t -> unit -> unit -> unit
(** [saver t ()] captures the ring's contents and accounting; the
    returned thunk restores them (re-runnable). For kernel snapshots. *)

val pp_event : Format.formatter -> event -> unit
val pp : Format.formatter -> t -> unit
