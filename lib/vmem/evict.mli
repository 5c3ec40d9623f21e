(** The two-level page eviction algorithm (§4.2.1).

    A global second-chance queue selects a victim frame. If the owning VAS
    has a page-eviction graft, it is invoked with the victim and the VAS's
    other evictable pages and may suggest a replacement. The global
    algorithm verifies the suggestion — the page must belong to the VAS and
    must not be wired — and on failure ignores it and evicts the original
    victim. When a valid replacement is chosen, Cao's swap places the
    original victim in the queue position the replacement occupied.

    Selection (the Table 4 code path) is separated from reclaim (unmap +
    free) so the paper's measurements can be reproduced without I/O noise;
    [evict_one] composes both. Paging I/O is not simulated: a fault
    charges a representative 16 ms disk access, and page-out costs
    nothing. *)

type t

val create :
  Vino_core.Kernel.t ->
  frames:Frame.table ->
  ?graft_support:bool ->
  unit ->
  t
(** [graft_support:false] builds the measurement baseline: victim selection
    with all graft indirection removed (Table 2's "base path"). *)

val kernel : t -> Vino_core.Kernel.t
val register_vas : t -> Vas.t -> unit
val vas_of : t -> int -> Vas.t option

val touch : t -> Vas.t -> vpage:int -> [ `Hit | `Fault ]
(** Reference a page, faulting it in if needed (blocking: may trigger
    eviction and disk I/O; must run inside an engine process). *)

val select_replacement :
  t -> cred:Vino_core.Cred.t -> (Frame.t, [ `Nothing_evictable ]) result
(** Run the two-level selection (global clock + per-VAS graft + kernel
    verification) and return the frame that would be evicted, without
    evicting it. *)

val reclaim : t -> Frame.t -> unit
(** Unmap the frame and free it. *)

val evict_one :
  t -> cred:Vino_core.Cred.t -> (Frame.t, [ `Nothing_evictable ]) result

val allocate_frame :
  t -> cred:Vino_core.Cred.t -> (Frame.t, [ `Nothing_evictable ]) result
(** Take a free frame, running the two-level eviction if none is free
    (used by the fault path and by {!Memobj}). *)

val attach : t -> Vas.t -> vpage:int -> Frame.t -> unit
(** Map a frame into the VAS and enter it in the global page queue. *)

val free_frames : t -> int

(* Statistics for Table 4's analysis. *)

val evictions : t -> int
val graft_overrules : t -> int
val invalid_suggestions : t -> int
val queue_order : t -> int list
