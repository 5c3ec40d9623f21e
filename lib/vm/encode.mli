(** Binary encoding of graft programs.

    Programs are serialised to a flat word stream — the "compiled code" the
    paper's MiSFIT signs (§3.3) and the dynamic linker verifies. Each
    instruction occupies four words: opcode plus three operand words. *)

val words_per_insn : int

val fold : ('a -> int -> 'a) -> 'a -> Insn.t array -> 'a
(** [fold f acc prog] folds [f] over the words of [to_words prog], in
    order, without building them. *)

val to_words : Insn.t array -> int array
(** Serialise a program. *)

val of_words : int array -> (Insn.t array, string) result
(** Deserialise; reports truncated streams and unknown opcodes. *)
