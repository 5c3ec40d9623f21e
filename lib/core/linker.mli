(** The dynamic linker (§3.3, §3.4).

    Loading a graft image performs the static half of VINO's protection:

    - recompute the image checksum and compare it with the saved signature —
      code not processed by the trusted toolchain never enters the kernel
      (Rule 6);
    - resolve every named kernel-call relocation against the registry and
      reject any target that is missing or not on the graft-callable list
      (Rules 4 and 7) — direct calls are checked here, once, at link time;
    - check any raw function ids embedded in the code the same way;
    - run the static graft verifier ({!Vino_verify.Verify}) over the code
      and reject hard errors: provably out-of-bounds memory accesses,
      indirect calls through a provably unknown id, malformed or
      fall-through code (its verdict is cached per kernel; see {!load});
    - revalidate any carried safety proof's load-time assumptions: the
      requested segment must be at least as large as the proof assumed,
      and every kernel function a [Checkcall] elision relied on must
      still be graft-callable — otherwise the proof is stale
      ({!Audit.Proof_stale}) and the load is refused;
    - allocate the graft's segment (heap + stack + shared window) from
      kernel memory.

    An image that passes with a proof is translated proof-carrying
    ({!Kernel.translate} with the proof): proven-safe accesses compile to
    bare superinstructions.

    Indirect calls cannot be checked statically; MiSFIT's [Checkcall]
    instructions handle those at run time against {!Calltable}. *)

type loaded = {
  code : Vino_vm.Insn.t array;
  seg : Vino_vm.Mem.segment;
  trans : Vino_vm.Jit.t;
      (** closure-threaded translation of [code], from the kernel's cache
          ({!Kernel.translate}); wrappers use it when the kernel's
          [exec_mode] is [Translated] *)
  flow : Vino_verify.Kflow.table;
      (** bitset kcall-flow transition table compiled from the post-link
          code; wrappers enforce it at dispatch when the kernel's
          [flow_enforce] is set *)
}

val load :
  Kernel.t -> words:int -> Vino_misfit.Image.t -> (loaded, string) result
(** [words] is the requested segment size (rounded up to a power of two).

    Every load checks the signature, patches the relocations, checks the
    direct ids, revalidates any proof and allocates a segment, in that
    order. Between the id check and the proof, it digests the post-link
    code once. The digest keys two per-kernel caches:

    - the link verdict ({!Kernel.link_verdict}): the static check's
      result and, on a pass, the kcall-flow table. They are computed
      once per distinct (post-link code, [words], {!Kcall.epoch}) and
      reused while the stored code equals the load's;
    - the translation ({!Kernel.translate}).

    A cached rejection fails with the same message as a fresh one, and
    callers audit it the same way. *)

val patched :
  Kernel.t ->
  Vino_vm.Insn.t array ->
  Vino_vm.Asm.reloc list ->
  (Vino_vm.Insn.t array, string) result
(** A copy of [code] with every named kernel-call relocation resolved to
    its registry id, as {!load} patches an image before checking it.
    Fails on a missing or non-graft-callable target. *)

val check_config : Kernel.t -> words:int -> Vino_verify.Verify.config
(** The configuration {!load}'s static check analyses post-link code
    under: no entry facts, the [`Rewritten] stage, the requested segment
    size and the registry's graft-callable set. *)

val unload : Kernel.t -> loaded -> unit
(** Return the graft's segment to the allocator. *)

val flow_of_obj :
  Kernel.t -> Vino_vm.Asm.obj -> (Vino_verify.Kflow.table, string) result
(** Kcall-flow transition table of an (unsealed) object: relocations are
    resolved against the registry exactly as {!load} does, but no segment
    is allocated and nothing is installed. This is how a campaign pins a
    witness protocol's table ([Kernel.flow_pin]) before installing a
    hijacked variant, and how the CLI reports a graph pre-install. *)
