(** Buddy allocator for graft segments.

    Each graft receives its own heap and stack (§2) inside one power-of-two
    sized, size-aligned segment of kernel memory, which is exactly the
    invariant {!Vino_vm.Mem.segment} requires for mask+or sandboxing. A
    buddy allocator hands out such segments and coalesces them on free. *)

type t

val create : base:int -> size:int -> t
(** Manage [size] words starting at [base]; both must make [base..base+size]
    splittable into aligned power-of-two blocks ([size] a power of two,
    [base] a multiple of [size]). *)

val alloc : t -> int -> (Vino_vm.Mem.segment, [ `No_memory ]) result
(** [alloc t words] returns a segment of at least [words] words (rounded up
    to a power of two, minimum 8). *)

val free : t -> Vino_vm.Mem.segment -> unit
(** Return a segment; buddies coalesce. @raise Invalid_argument if the
    segment was not allocated from this allocator. *)

val free_words : t -> int
val used_words : t -> int

val chunk_words : int
(** Granularity of the dirty map (the minimum block size, 8 words). *)

val touched_words : t -> int
(** Total words in chunks ever allocated — the size of the dirty set a
    snapshot must save. Cumulative: [free] does not un-touch; {!restore}
    rewinds it. *)

val fresh_blocks : t -> Vino_vm.Mem.segment list
(** Newest first: every block whose allocation touched a
    [chunk_words]-sized chunk no earlier allocation had. Their union is
    exactly the touched set — an address outside it was never handed
    out, hence never written, hence still zero. Re-allocating touched
    chunks lists nothing, so the list is bounded by the chunk count
    however long the allocator churns. O(1): the list is persistent. *)

type snap
(** Captured allocator tables (free lists, allocation map) plus the
    touched-word count and a pointer to the fresh-block list. *)

val snapshot : t -> snap
(** Structural copy of the allocator's tables. Bucket structure is
    preserved exactly, so a restored allocator replays the same
    allocation addresses the original would have. *)

val iter_fresh_since : t -> snap -> (Vino_vm.Mem.segment -> unit) -> unit
(** [iter_fresh_since t s f] applies [f] to the blocks {!fresh_blocks}
    listed since [s] was taken, newest first, in O(those blocks). If [t]
    was restored to an older snapshot in between, [s]'s list is no longer
    a suffix of the current one and every listed block is visited (a
    superset, still covering every chunk touched since [s]). *)

val restore : t -> snap -> unit
(** Rewind the allocator to the snapshot; re-runnable (each call installs
    fresh copies of the captured tables). The dirty map rewinds in
    O(blocks listed since plus blocks listed at [s]), not O(arena). *)
