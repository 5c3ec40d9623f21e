(** Code signing for processed grafts (paper §3.3).

    MiSFIT computes a digital signature of the graft and stores it with the
    compiled code; when VINO loads a graft it recomputes the checksum and
    compares it with the saved copy. We model the signature as a keyed
    FNV-1a digest ({!Vino_vm.Fnv}, two steps per word) over the serialised
    instruction stream: only the trusted toolchain (holder of the key) can
    produce a digest the kernel accepts, so unprocessed or tampered code is
    rejected at load time. *)

type t = private int

val digest : key:string -> int array -> t

val fold : key:string -> ((int -> int -> int) -> int -> int) -> t
(** [fold ~key feed] digests a word stream without building it: [feed step
    h] must fold [step] over the stream's words, in order, from [h]. It
    equals [digest ~key words] when [feed] walks [words]. *)

val equal : t -> t -> bool
val forge : int -> t
(** Construct an arbitrary signature value — used by tests that model an
    attacker guessing signatures. *)

val pp : Format.formatter -> t -> unit
