(** Word-addressed simulated physical memory and graft segments.

    The kernel owns one flat memory; every loaded graft is assigned a
    power-of-two sized {!segment} of it (its heap, stack and any shared
    buffers the kernel maps in). MiSFIT's [Sandbox] instruction forces an
    address into the segment with one mask and one or — the classic
    Wahbe-style sandboxing the paper uses — so a rewritten graft can fault
    on neither loads nor stores outside its segment. *)

type t

type segment = { base : int; size : int }
(** [size] must be a power of two and [base] a multiple of [size], so that
    [base lor (addr land (size-1))] always lands inside the segment. *)

exception Fault of { addr : int; write : bool }
(** Raised on an out-of-memory-bounds access (an un-sandboxed wild access). *)

val create : int -> t
(** [create words] allocates a zeroed memory of [words] words. *)

val size : t -> int
val load : t -> int -> int
val store : t -> int -> int -> unit

val unsafe_load : t -> int -> int
val unsafe_store : t -> int -> int -> unit
(** Unchecked accesses for callers that can prove the address in bounds.
    {!Jit} uses them for sandboxed accesses after validating once per run
    that the segment lies inside memory: [sandbox] confines the address
    to the segment, so the bounds proof is structural, not trusted. *)

val segment : base:int -> size:int -> segment
(** @raise Invalid_argument if the alignment/power-of-two invariant fails. *)

val in_segment : segment -> int -> bool

val sandbox : segment -> int -> int
(** [sandbox seg addr] is [seg.base lor (addr land (seg.size - 1))]: the
    address a MiSFIT-rewritten access actually uses. *)

val blit_in : ?len:int -> t -> int -> int array -> unit
(** [blit_in mem addr src] copies [src] into memory starting at [addr];
    with [len], only its first [len] words. Atomic: the whole range is
    validated before any word is written, so a faulting blit leaves
    memory untouched.
    @raise Invalid_argument if [len] is negative or exceeds [src]. *)

val blit_out : t -> int -> int -> int array
(** [blit_out mem addr len] copies [len] words starting at [addr]. The
    range is validated up front. *)

val fill : t -> int -> int -> int -> unit
(** [fill mem addr len v] stores [v] into [len] words from [addr].
    Atomic, like {!blit_in}. *)
