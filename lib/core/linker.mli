(** The dynamic linker (§3.3, §3.4).

    Loading a graft image performs the static half of VINO's protection,
    and the linker is the only judge of confinement:

    - recompute the image checksum and compare it with the saved signature —
      code not processed by the trusted toolchain never enters the kernel
      (Rule 6);
    - resolve every named kernel-call relocation against the registry and
      reject any target that is missing or not on the graft-callable list
      (Rules 4 and 7) — direct calls are checked here, once, at link time;
    - check any raw function ids embedded in the code the same way;
    - run the static graft verifier ({!Vino_verify.Verify}) over the code
      under the installer's entry facts and reject hard errors: provably
      out-of-bounds memory accesses, indirect calls through a provably
      unknown id, malformed or fall-through code (its verdict is cached
      per kernel; see {!load});
    - refuse, unless the installer is privileged, code with a reachable
      memory access the analysis does not prove in-segment (Rule 3);
    - allocate the graft's segment (heap + stack + shared window) from
      kernel memory.

    The raw accesses the analysis proves are translated bare
    ({!Kernel.translate}'s [safe]); MiSFIT's sandboxed accesses never
    are. The signature vouches for no memory-safety claim, so a forged
    or falsely sealed image can at worst be refused here.

    An analysis degraded by a [Callr] (computed intra-graft control flow)
    proves nothing, so such a graft loads only for a privileged
    installer. No program loaded today contains a [Callr].

    An indirect call whose id the analysis cannot prove is not refused:
    MiSFIT's [Checkcall] checks it at run time ({!Kcall.callable}), and
    the dispatcher refuses a non-callable id whether or not a [Checkcall]
    ran. *)

type loaded = private {
  code : Vino_vm.Insn.t array;
  seg : Vino_vm.Mem.segment;
  trans : Vino_vm.Jit.t;
      (** closure-threaded translation of [code], from the kernel's cache
          ({!Kernel.translate}); wrappers use it when the kernel's
          [exec_mode] is [Translated] *)
  flow : Vino_verify.Kflow.table;
      (** bitset kcall-flow transition table compiled from the post-link
          code; wrappers enforce it at dispatch when the kernel's
          [flow_check] is [Flow_own] *)
  mutable running : int;  (** invocations executing in [seg] now ({!pin}) *)
  mutable retired : bool;
      (** {!unload}ed while [running > 0]: the last {!unpin} frees [seg] *)
}

val load :
  ?entry:(Vino_vm.Insn.reg * Vino_verify.Absval.t) list ->
  ?privileged:bool ->
  Kernel.t ->
  words:int ->
  Vino_misfit.Image.t ->
  (loaded, string) result
(** [words] is the requested segment size (rounded up to a power of two).
    [entry] is what the installing point's marshalling establishes in the
    argument registers (default none); {!Event_point} passes the payload
    window in r1 and a length of at most its payload words in r2, the
    measurement rig its scenario's facts, and function graft points
    none. [privileged] (default false) is whether the installer's
    credential is privileged, the paper's trusted unsafe path.

    Every load checks the signature, patches the relocations, checks the
    direct ids, takes the analysis's verdict, refuses an unproven access
    for an unprivileged installer and allocates a segment, in that order.
    Between the id check and the verdict, it digests the post-link code
    once. The digest keys two per-kernel caches:

    - the link verdict ({!Kernel.link_verdict}): the analysis's result
      and, on a pass, the kcall-flow table, the bare set and the first
      unproven access. They are computed once per distinct (post-link
      code, [words], [entry], {!Kcall.epoch}) and reused while the stored
      code equals the load's;
    - the translation ({!Kernel.translate}), with the bare set.

    A cached rejection fails with the same message as a fresh one, and
    callers audit it the same way. *)

val patched :
  Kernel.t ->
  Vino_vm.Insn.t array ->
  Vino_vm.Asm.reloc list ->
  (Vino_vm.Insn.t array, string) result
(** A copy of [code] with every named kernel-call relocation resolved to
    its registry id, as {!load} patches an image before checking it.
    Fails on a missing or non-graft-callable target, or an index outside
    [code]. *)

val check_config : Kernel.t -> words:int -> Vino_verify.Verify.config
(** The configuration {!load}'s static check analyses post-link code
    under when the installer passes no entry facts: the [`Rewritten]
    stage, the requested segment size and the registry's graft-callable
    set. *)

val unload : Kernel.t -> loaded -> unit
(** Return the graft's segment to the allocator, zeroed, so the next
    graft given the block starts from zeros. {!Kernel.restore} relies on
    this too: it zeroes and re-images only live segments, because free
    graft memory reads zero (see {!Segalloc}). While invocations are
    still running in the segment ({!pin}), the free waits for the last
    of them: a graft removed after one invocation fails may have others
    in flight, and none of them may write into a block another graft
    owns (Rule 3). *)

val pin : loaded -> unit
(** Count one more invocation running in the graft's segment.
    {!Wrapper.invoke} pins before it begins the invocation's transaction
    and {!unpin}s after resolving it; {!Event_point.dispatch} also pins
    each worker from its spawn to its exit.

    Snapshots capture no pin state. {!Kernel.snapshot} refuses a kernel
    whose engine has run or that has a live transaction, so every count
    is 0 at a snapshot; restore a kernel only when no invocation is
    parked in it, or a graft the restore reinstates keeps the count its
    parked invocations held. *)

val unpin : Kernel.t -> loaded -> unit
(** The invocation has returned. The last one out of an {!unload}ed
    graft frees its segment. *)

val flow_of_obj :
  Kernel.t -> Vino_vm.Asm.obj -> (Vino_verify.Kflow.table, string) result
(** Kcall-flow transition table of an (unsealed) object: relocations are
    resolved against the registry exactly as {!load} does, but no segment
    is allocated and nothing is installed. This is how a campaign pins a
    witness protocol's table ([Kernel.Flow_pinned]) before installing a
    hijacked variant. The CLI's pre-install graph reports ([vino verify],
    [vino inspect], [vino seal --flowcheck]) do not use it: they have no
    kernel registry to resolve against, so they give each import a
    synthetic id instead. *)
