(** The measured graft paths, and Table 2's method for measuring a graft
    along them.

    {!Vino_core.Graft_point} implements the production behaviour (abort ⇒
    forcibly remove the graft, fall back to the default), which is wrong
    for measurement: the Abort path must abort the same graft thousands of
    times. The rig loads a graft once and runs each invocation through
    the same wrapper, {!Vino_core.Wrapper.invoke}, with an explicit
    commit/abort decision in place of the graft point's removal and
    fallback. {!seal}, {!sample} and {!time_abort} are the path rules
    every {!Graft.S} module shares. *)

type t = {
  kernel : Vino_core.Kernel.t;
  loaded : Vino_core.Linker.loaded;
  cred : Vino_core.Cred.t;
  limits : Vino_txn.Rlimit.t;
  mutable decided : int;
      (** virtual time at which the last halted {!run} reached its
          commit/abort decision, after the result-checking charge *)
}

val load :
  ?entry:(Vino_vm.Insn.reg * Vino_verify.Absval.t) list ->
  Vino_core.Kernel.t ->
  words:int ->
  Vino_misfit.Image.t ->
  t
(** Link the image as {!field-cred}, [Cred.root]: a privileged installer,
    so the Unsafe path's unsandboxed code loads. [entry] is what the
    scenario's setup establishes in the argument registers (default
    none): the linker translates the raw accesses it proves under them
    bare ({!Vino_core.Linker.load}).
    @raise Failure on a linker error. *)

val seg_base : t -> int
(** Base address of the graft segment (for writing shared data). *)

val seal :
  Vino_core.Kernel.t ->
  verify:Vino_verify.Verify.config ->
  null:Vino_vm.Asm.item list ->
  full:Vino_vm.Asm.item list ->
  Path.t ->
  Vino_misfit.Image.t
(** The image a graft path runs: the [null] graft on [Null], the [full]
    graft on every other graft path; signed without MiSFIT on [Unsafe],
    sealed with the static verifier under [verify]'s entry facts on
    [Verified], and sealed with MiSFIT alone elsewhere.
    @raise Invalid_argument on [Base] and [Vino], which run no graft.
    @raise Failure if sealing fails. *)

type outcome = Committed | Rolled_back | Failed of string

val run :
  t ->
  ?indirection:int ->
  ?check_cost:int ->
  ?setup:(Vino_vm.Cpu.t -> unit) ->
  ?check:(Vino_vm.Cpu.t -> bool) ->
  commit:bool ->
  unit ->
  outcome
(** One transactional graft invocation: charge the indirection, then
    {!Vino_core.Wrapper.invoke} the graft with result checking charged at
    [check_cost], recording {!field-decided} after that charge. A valid
    result commits when [commit] is set and rolls back ([Rolled_back])
    otherwise; a failed [check] or any other failure is [Failed]. Must
    run inside an engine process. *)

val sample :
  t ->
  ?iterations:int ->
  Path.t ->
  (commit:bool -> int -> outcome) ->
  Vino_sim.Stats.t
(** [sample t path invoke] samples a graft path with {!Probe.samples}:
    iteration [k] is [invoke ~commit k], the graft's per-iteration
    workload around one {!run} of [t]. [FlowChecked] turns on the
    kernel's kcall-flow enforcement first; every path but [Abort]
    commits.
    @raise Failure if an invocation ends [Failed]. *)

val time_abort :
  t -> ?iterations:int -> (commit:bool -> int -> outcome) -> float
(** Table 7's measurement: runs [invoke ~commit:false k] as {!sample}
    does and returns the trimmed mean of the abort alone, the time from
    each invocation's commit/abort decision ({!field-decided}) until
    [invoke] returns. Anything [invoke] does after its {!run} would count
    as abort time, so it ends with the {!run}.
    @raise Failure unless every invocation rolls back. *)
