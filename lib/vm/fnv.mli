(** 64-bit FNV-1a folded into OCaml's 63-bit [int], one byte at a time:
    the digest under graft signatures ({!Vino_misfit.Sign}) and proof
    hashes ({!Vino_verify.Proof.hash}). *)

val digest : key:string -> int array -> int
(** [digest ~key words] folds the bytes of [key], then every word of
    [words], eight bytes a word, least significant byte first. *)
