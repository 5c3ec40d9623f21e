(** The simulation event queue: entries ordered by [key] (virtual time)
    and, for equal keys, by insertion sequence — so simultaneous events
    pop in FIFO order and the simulation is deterministic.

    Entries added before the first peek or pop since {!create} or
    {!clear} form a run, sorted once by that call and then read in order;
    later, younger entries go into a binary min-heap. Keys, sequences and
    generations sit in int arrays, values in a slot array written once
    per {!add}: ordering moves slot numbers only; only doubling allocates. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int
val add : 'a t -> key:int -> gen:int -> 'a -> unit

val peek_key : 'a t -> int
(** Key of the entry the next {!pop} returns. Raises [Invalid_argument]
    on an empty queue, as {!peek_gen} and {!pop} do. *)

val peek_gen : 'a t -> int
val pop : 'a t -> 'a

(** {1 Reading one head}

    {!peek_key}, {!peek_gen} and {!pop} each find the head again. A
    consumer that needs all three finds it once. *)

val head : 'a t -> int
(** The slot of the entry the next {!pop} returns, or [-1] on an empty
    queue. It names that entry until the next {!add}, {!pop_head},
    {!pop} or {!clear}. *)

val key : 'a t -> int -> int
(** [key t (head t)] is [peek_key t]. *)

val gen : 'a t -> int -> int
(** [gen t (head t)] is [peek_gen t]. *)

val pop_head : 'a t -> int -> 'a
(** [pop_head t (head t)] is [pop t], without finding the head again.
    The slot must be the current [head t]. *)

val clear : 'a t -> unit
(** Empty the queue and reset the insertion sequence, as if freshly
    [create]d. *)

val entries : 'a t -> (int * 'a) list
(** The entries as [(key, value)] in insertion order, before the first
    {!pop} since {!create} or {!clear} (raises [Invalid_argument] after
    one). Re-[add]ing them in this order into a [clear]ed queue
    reproduces the original pop order exactly. *)
