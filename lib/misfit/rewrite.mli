(** MiSFIT: the software-fault-isolation rewriter (paper §3.3, [17]).

    At "compilation" time the rewriter inserts instructions that protect
    loads and stores: the target address is forced to fall within the range
    of memory allocated to the graft (its segment), at a cost of 2-5 cycles
    per load or store. Indirect kernel calls get a [Checkcall] instruction
    that probes the graft-callable hash table at run time (10-15 cycles).

    The rewriter operates on the graft IR; instruction insertion remaps all
    branch/jump/call targets. Code that uses the reserved sandbox register
    {!Vino_vm.Insn.scratch} is rejected. *)

val uses_reserved_register : Vino_vm.Insn.t array -> bool

val lower_stack_ops : Vino_vm.Insn.t array -> Vino_vm.Insn.t array
(** Expand [Push]/[Pop] into explicit stack-pointer arithmetic plus a plain
    store/load, so the generic sandboxing pass covers them. *)

val sandbox_memory :
  ?safe:(int -> bool) -> Vino_vm.Insn.t array -> Vino_vm.Insn.t array
(** Insert [Sandbox] sequences before every [Ld]/[St].

    [safe] (judged at input-program indices, default never) marks accesses
    proven in-segment by the static verifier: they keep their raw [Ld]/[St]
    with no sandbox sequence at all. *)

val guard_indirect_calls :
  ?safe:(int -> bool) -> Vino_vm.Insn.t array -> Vino_vm.Insn.t array
(** Insert [Checkcall] before every [Kcallr]. [safe] (input-program
    indices) marks calls whose id the verifier proved graft-callable; they
    keep their raw [Kcallr]. *)

val process :
  ?verifier:Vino_verify.Verify.config ->
  Vino_vm.Insn.t array ->
  (Vino_vm.Insn.t array, string) result
(** Full MiSFIT pipeline: reject reserved-register use, lower stack ops,
    sandbox memory accesses, guard indirect calls.

    With [verifier], the static analyser ({!Vino_verify.Verify.analyse})
    runs over the lowered program first. Accesses and indirect calls it
    proves safe keep their raw instructions — no [Sandbox], no [Checkcall]
    — and hard errors (provably out-of-bounds access, provably unknown
    kernel-call id, malformed code) abort the rewrite with the verifier's
    diagnostics. Nothing vouches for the facts in [verifier]: the dynamic
    linker re-runs the analysis under the installing point's own facts
    and refuses an unprivileged install whose raw accesses it cannot
    prove ([Linker.load]), so sealing under facts the graft
    point does not establish gets an image no such point will load. *)

val expand :
  (Vino_vm.Insn.t -> Vino_vm.Insn.t list) ->
  Vino_vm.Insn.t array ->
  Vino_vm.Insn.t array
(** Generic instruction-expansion pass with control-flow target remapping
    (exposed for tests and ablations). *)
