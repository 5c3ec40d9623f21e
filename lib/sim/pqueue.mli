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

val clear : 'a t -> unit
(** Empty the queue and reset the insertion sequence, as if freshly
    [create]d. *)

val entries : 'a t -> (int * 'a) list
(** The entries as [(key, value)] in insertion order, before the first
    {!pop} since {!create} or {!clear} (raises [Invalid_argument] after
    one). Re-[add]ing them in this order into a [clear]ed queue
    reproduces the original pop order exactly. *)
