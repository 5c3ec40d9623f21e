(** A sealed graft image: SFI-processed code, kernel-call relocations and the
    toolchain signature — the unit the dynamic linker loads (paper §3.3/3.4).

    [seal] is "running the graft through MiSFIT": the only supported way to
    produce an image whose signature the kernel will accept. Images carry
    their relocation table so the linker can resolve named kernel calls
    against the graft-callable list and reject any that are not on it. *)

type t = private {
  code : Vino_vm.Insn.t array;  (** SFI-rewritten program *)
  relocs : Vino_vm.Asm.reloc list;
      (** indices of unresolved [Kcall] placeholders, with target names *)
  proof : Vino_verify.Proof.t option;
      (** seal-time verification certificate ([seal ~verifier] only):
          which surviving raw accesses are proven unable to fault, and the
          callable-set / segment-size assumptions the linker must
          re-validate at load time. Covered by [signature]. *)
  signature : Sign.t;
}

val seal :
  ?verifier:Vino_verify.Verify.config ->
  key:string ->
  Vino_vm.Asm.obj ->
  (t, string) result
(** Rewrite with {!Rewrite.process} (with [verifier], static verification
    elides proven-safe checks), recompute relocation indices on the
    rewritten code, and sign. Fails if the source uses the reserved
    sandbox register, or — with [verifier] — if the static analysis finds
    a hard error. *)

val seal_unsafe : key:string -> Vino_vm.Asm.obj -> t
(** Sign WITHOUT SFI rewriting. This models the paper's "unsafe path"
    measurement configuration (trusted code, no MiSFIT overhead); it is not
    reachable from the public kernel API with an untrusted graft. *)

val verify : key:string -> t -> bool
(** Recompute the checksum and compare with the saved copy. *)

val tamper : t -> t
(** Flip one instruction without re-signing — for tests that check the
    linker rejects modified code. *)

val tamper_proof : t -> t
(** Mark every access proven-safe in the carried proof without re-signing —
    for tests that check a forged certificate fails {!verify}. Identity on
    proof-less images. *)

val serialise : t -> int array
val deserialise : int array -> (t, string) result

val save : t -> path:string -> unit
(** Write the ".gimg" on-disk form (a text header plus the serialised word
    stream, one word per line). *)

val load : path:string -> (t, string) result
(** Read a ".gimg" file; rejects bad magic, corrupt words and malformed
    streams. The signature still needs {!verify}. *)
