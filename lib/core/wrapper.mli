(** Sliced, transactional execution of graft code.

    The wrapper runs a graft invocation on the graft VM in preemptible
    slices: after each slice the consumed cycles are charged to the virtual
    clock (so lock time-outs, watchdogs and other kernel activity interleave
    with graft execution exactly as a preemptible kernel interleaves with a
    running thread), and the transaction's abort flag is polled. An
    invocation also carries a total CPU budget, beyond which it is cut off
    like any runaway thread (Rule 1/2). {!invoke} wraps such a run in the
    paper's transactional protocol; every graft point, event handler and
    measured path goes through it. *)

val env :
  ?flow:Vino_verify.Kflow.table ->
  Kernel.t ->
  txn:Vino_txn.Txn.t option ->
  cred:Cred.t ->
  limits:Vino_txn.Rlimit.t ->
  Vino_vm.Cpu.env
(** The kernel-call/checkcall/poll environment a graft executes under. The
    dispatcher refuses ids that are absent or not graft-callable; [call_ok]
    probes the runtime call table.

    With [flow], every dispatch is first checked against the kcall-flow
    transition table — an O(1) row/bit test charged at
    [vm_costs.flow_check] — and an out-of-graph transition aborts the
    invocation's transaction ([K_abort]) before the target function runs,
    bumping [kflow.violations] and the audit trail. The "last kcall" state
    lives in the environment, so one [env] spans one graft invocation
    (slices included) in either execution mode. *)

val default_slice : int
val default_budget : int

val exec :
  Kernel.t ->
  Linker.loaded ->
  txn:Vino_txn.Txn.t ->
  cred:Cred.t ->
  limits:Vino_txn.Rlimit.t ->
  ?slice:int ->
  ?budget:int ->
  setup:(Vino_vm.Cpu.t -> unit) ->
  unit ->
  Vino_vm.Cpu.t * Vino_vm.Cpu.outcome
(** [exec kernel loaded ~txn ...] runs one invocation of the loaded
    graft on a fresh cpu, after [setup], in [slice]-cycle slices
    (default {!default_slice}) until it halts, faults, observes an abort
    of [txn] or an ancestor, or has used [budget] cycles (default
    {!default_budget}). It leaves [txn] active: {!invoke} decides it.
    Must run inside an engine process. Advances the virtual clock by
    every cycle the graft consumes.

    The kernel's [exec_mode] selects the step function: [Translated]
    runs the loaded graft's closure-threaded translation, [Interp]
    interprets its code. Both produce bit-identical cpu state and
    outcomes.

    The graft's kcall-flow table is enforced only when the kernel's
    [flow_enforce] is set, and [Kernel.flow_pin] (an attested graph)
    overrides it. Both step functions dispatch kernel calls through the
    same environment closure, so enforcement is identical in interp and
    translated modes. *)

val invoke :
  Kernel.t ->
  Linker.loaded ->
  name:string ->
  cred:Cred.t ->
  limits:Vino_txn.Rlimit.t ->
  ?budget:int ->
  ?watchdog:int ->
  ?check_cost:int ->
  setup:(Vino_vm.Cpu.t -> unit) ->
  check:(Vino_vm.Cpu.t -> ('a, string) result) ->
  unit ->
  ('a, string) result
(** One graft invocation under the paper's wrapper (Figure 3, §3.1, §3.6),
    the only code that begins, decides and recycles an invocation's
    transaction. In order:
    + {!Linker.pin} the graft, so an {!Linker.unload} meanwhile defers
      freeing its segment until the invocation returns;
    + begin a transaction named [name], nested under {!Vino_txn.Txn.current}
      when the calling process runs under one;
    + arm the [watchdog] (cycles), if given: when it fires it requests an
      abort, ["graft point <name>: watchdog expired"];
    + {!exec} with [budget], then cancel the watchdog;
    + on [Halted]: charge [check_cost] cycles, if given (even 0, which
      still yields to same-time events), run [check], and commit on [Ok];
    + on a fault, an abort, an exhausted budget (["CPU budget
      exhausted"]), a failed check or a failed commit: abort the
      transaction if it is still active;
    + recycle the transaction frame and unpin the graft.

    Returns [check]'s value, or the reason the invocation failed. Must run
    inside an engine process. If that process is killed
    ({!Vino_sim.Engine.Stopped} leaves any step), [Stopped] is re-raised
    once the invocation is cleaned up. A kill during the begin unpins
    the graft at once, since no transaction exists yet. After that, the
    watchdog is cancelled and a fresh process runs the last two steps.
    It settles the transaction ({!Vino_txn.Txn.settle}): a commit the
    kill interrupted is finished, and anything else still active is
    aborted. It then recycles the frame and unpins the graft. A killed
    caller, at any nesting depth, leaves no live transaction, held lock
    or pinned graft behind (Rule 9). *)
