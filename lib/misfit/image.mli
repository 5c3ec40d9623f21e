(** A sealed graft image: SFI-processed code, kernel-call relocations and the
    toolchain signature — the unit the dynamic linker loads (paper §3.3/3.4).

    [seal] is "running the graft through MiSFIT": the only supported way to
    produce an image whose signature the kernel will accept. Images carry
    their relocation table so the linker can resolve named kernel calls
    against the graft-callable list and reject any that are not on it.

    An image carries no certificate. Which of its raw accesses may run
    without a sandbox is decided again by the linker, under the facts of
    the point that installs it; the signature only says the toolchain
    produced the image. *)

type t = private {
  code : Vino_vm.Insn.t array;  (** SFI-rewritten program *)
  relocs : Vino_vm.Asm.reloc list;
      (** indices of unresolved [Kcall] placeholders, with target names *)
  signature : Sign.t;
      (** covers every word {!serialise} writes before it: the two
          section lengths, the code cells and the relocation table *)
}

val seal :
  ?verifier:Vino_verify.Verify.config ->
  key:string ->
  Vino_vm.Asm.obj ->
  (t, string) result
(** Rewrite with {!Rewrite.process} (with [verifier], accesses the
    analysis proves under [verifier]'s facts keep no sandbox), recompute
    relocation indices on the rewritten code, and sign. Fails if the
    source uses the reserved sandbox register, or — with [verifier] — if
    the static analysis finds a hard error. *)

val seal_unsafe : key:string -> Vino_vm.Asm.obj -> t
(** Sign WITHOUT SFI rewriting. This models the paper's "unsafe path"
    measurement configuration (trusted code, no MiSFIT overhead); it is not
    reachable from the public kernel API with an untrusted graft. *)

val verify : key:string -> t -> bool
(** Recompute the checksum and compare with the saved copy. *)

val tamper : t -> t
(** Flip one instruction without re-signing — for tests that check the
    linker rejects modified code. *)

val serialise : t -> int array

val deserialise : int array -> (t, string) result
(** Refuses any stream that {!serialise} would not write back word for
    word: a malformed header, an unused operand word that is not zero, a
    relocation-name word outside 0..255. It also refuses a relocation
    whose index lies outside the code, which {!serialise} would write
    back unchanged but no linker could patch. *)

val save : t -> path:string -> unit
(** Write the ".gimg" on-disk form (a text header plus the serialised word
    stream, one word per line). *)

val load : path:string -> (t, string) result
(** Read a ".gimg" file; rejects bad magic (the current format is
    [VINOIMG4]), corrupt words and streams {!deserialise} refuses. The
    signature still needs {!verify}. *)
