(** Buddy allocator for graft segments.

    Each graft receives its own heap and stack (§2) inside one power-of-two
    sized, size-aligned segment of kernel memory, which is exactly the
    invariant {!Vino_vm.Mem.segment} requires for mask+or sandboxing. A
    buddy allocator hands out such segments and coalesces them on free.

    The allocator keeps no record of what its blocks hold. Free graft
    memory reads zero because its owners keep it so: {!Vino_vm.Mem.create}
    zeroes, MiSFIT confines every graft store to the graft's own segment,
    kernel-side writes go only to live segments, and {!Linker.unload}
    zeroes a block before it frees it. Snapshots rely on that. *)

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

val blocks : t -> Vino_vm.Mem.segment list
(** The blocks allocated now, in no particular order. Every non-zero word
    of the arena lies in one of them. *)

type snap
(** Captured allocator tables (free lists and allocation map). *)

val snapshot : t -> snap
(** Structural copy of the allocator's tables. Bucket structure is
    preserved exactly, so a restored allocator replays the same
    allocation addresses the original would have. *)

val restore : t -> snap -> unit
(** Rewind the allocator to the snapshot; re-runnable (each call installs
    fresh copies of the captured tables). *)
