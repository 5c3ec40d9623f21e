(** FNV-1a folded into OCaml's 63-bit [int], over 32-bit inputs: the
    digest under graft signatures ({!Vino_misfit.Sign}) and the
    post-link code digest that keys the kernel's caches.

    A word is folded as two xor-multiply steps, its low 32 bits and then
    its high 31. One step per whole word would let an input reach the
    state's top bit, where xor is the same as adding [2^62], which every
    odd multiply preserves: flipping bit 62 of two words, or of one word
    and of the digest, would then go unseen whatever the key. A 32-bit
    input meets the multiply's carries instead, which depend on the
    state. The multiply is odd, so each step is a bijection of the state
    for a fixed input, and two streams of the same length that differ in
    one word always digest differently. Callers that digest a structure
    fold {!word} over its serialised words as they walk it, from {!init},
    instead of building the word array first. *)

val init : key:string -> int
(** The state after folding the bytes of [key], one step a byte. *)

val word : int -> int -> int
(** [word h w] folds one word into the state [h]. *)

val digest : key:string -> int array -> int
(** [digest ~key words] folds every word of [words] from [init ~key]. *)
