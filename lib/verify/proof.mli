(** A portable verification certificate, derived from a {!Report} at seal
    time and carried by the graft image (PAPERS.md: verify the SFI tool's
    output offline, then trust it at full speed).

    It records exactly what the translator needs to compile proven-safe
    sites to bare superinstructions, plus the assumptions those verdicts
    rest on so the linker can re-validate them at load time:

    - [safe]: per {e rewritten-code} index, whether that [Ld]/[St] was
      proven in-segment (its address can never fault, so the translation
      may treat it like any non-faulting straight-line instruction);
    - [calls]: the kernel-function ids the verifier proved graft-callable
      at some [Kcallr] whose [Checkcall] probe was elided — if any of them
      is later re-flagged, the proof is stale and must be rejected;
    - [words]: the minimum segment size every [Access_safe] verdict
      assumed — loading into a smaller segment would be unsound.

    Authenticity is the image signature's job (it covers the serialised
    proof); {!hash} only has to separate translation-cache entries. *)

type t = private {
  words : int;  (** minimum segment words assumed by the analysis *)
  safe : bool array;  (** per rewritten-code index: access cannot fault *)
  calls : int list;  (** sorted distinct ids assumed graft-callable *)
}

val make : words:int -> safe:bool array -> calls:int list -> t
(** Copies [safe]; sorts and de-duplicates [calls].
    @raise Invalid_argument if [words < 1]. *)

val words : t -> int
val calls : t -> int list

val safe : t -> bool array
(** A copy of the per-index safe-access map. *)

val safe_count : t -> int
val length : t -> int
val equal : t -> t -> bool

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
(** [fold f acc t] folds [f] over the words of [serialise t], in order,
    without building them. *)

val serialise : t -> int array
val deserialise : int array -> (t, string) result

val hash : t -> int
(** Unkeyed {!Vino_vm.Fnv} over {!fold}'s words. Never 0 (reserved for
    "no proof"). *)

val hash_opt : t option -> int
(** [hash] of the proof, or 0 for [None]. *)

val pp : Format.formatter -> t -> unit
