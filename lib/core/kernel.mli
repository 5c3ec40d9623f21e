(** The VINO kernel object: engine, memory, transaction manager, the
    graft-callable function registry, and the signing key the dynamic
    linker verifies images against.

    Subsystems (file system, virtual memory, scheduler, network) are built
    on top of this record: they register their graft-callable accessor
    functions here and create graft points in the {!Namespace}. *)

type cached = { tr : Vino_vm.Jit.t; mutable last_use : int }
(** A translation-cache entry: the compiled graft plus its LRU use stamp
    (a [jit_clock] value, not virtual time — cache management costs no
    simulated cycles). *)

type jit_cache_stats = {
  jit_hits : int;
  jit_misses : int;
  jit_evictions : int;
  jit_entries : int;  (** live entries, [<= jit_cache_cap] *)
}

type linkable = {
  flow : Vino_verify.Kflow.table;  (** the kcall-flow transition table *)
  bare : bool array option;
      (** {!Vino_verify.Report.bare_accesses}: the raw accesses proven
          in-segment, which compile with no sandbox *)
  unproven : int option;
      (** {!Vino_verify.Report.unproven_access}: the pc of the first
          reachable access not proven in-segment *)
}
(** What the link-time analysis found in code that passed it. *)

type link_verdict = (linkable, string) result
(** What {!Linker.load} derives from post-link code under the installer's
    entry facts: what the analysis found, or its rejection reason. The
    installer's privilege is not part of it: {!Linker.load} refuses an
    [unproven] access for an unprivileged installer after the lookup. *)

type cached_verdict = {
  vcode : Vino_vm.Insn.t array;  (** the post-link code it was derived for *)
  verdict : link_verdict;
}
(** A link-verdict table entry. *)

type verdict_stats = {
  verdict_hits : int;
  verdict_misses : int;
  verdict_entries : int;  (** live entries, [<= verdict_cap] *)
}

(** Which kcall-flow transition table wrappers enforce at dispatch. *)
type flow_check =
  | Flow_off
      (** none (the default: flow checking is an opt-in third protection
          mechanism, like seal-time verification) *)
  | Flow_own  (** each graft's own table, compiled at load *)
  | Flow_pinned of Vino_verify.Kflow.table
      (** this table for every graft, modeling an attested compile-time
          call-flow graph (SFIP-style) that the running code must honour.
          Disaster campaigns pin a witness protocol's table and then
          install a hijacked variant. *)

type t = {
  engine : Vino_sim.Engine.t;
  wheel : Vino_sim.Tick.t;
  mem : Vino_vm.Mem.t;  (** physical memory backing graft segments *)
  txn_mgr : Vino_txn.Txn.mgr;
  registry : Kcall.registry;  (** the graft-callable list (§3.3) *)
  segalloc : Segalloc.t;
  key : string;  (** trusted toolchain signing key *)
  vm_costs : Vino_vm.Costs.t;  (** {!Vino_vm.Costs.default} *)
  audit : Audit.t;  (** trail of graft security events *)
  translations : (Vino_misfit.Sign.t * bool array option, cached) Hashtbl.t;
      (** translation cache, keyed by post-link code signature plus the
          bare set: translations of the same code with and without bare
          accesses coexist, and a hit compares both the code and the bare
          set. Guarded by [translations_mu]; bounded by [jit_cache_cap]
          with LRU eviction. *)
  translations_mu : Mutex.t;
      (** serialises cache access — concurrent [translate] on a shared
          kernel under a domain pool would race the non-thread-safe
          Hashtbl *)
  mutable jit_cache_cap : int;
      (** capacity of [translations] (>= 1); reaching it evicts the
          least-recently-used entry. Set via {!create} or
          {!set_jit_cache_cap}. *)
  mutable jit_clock : int;  (** LRU use-stamp source, under the mutex *)
  mutable jit_hits : int;
  mutable jit_misses : int;
  mutable jit_evictions : int;
  verdicts :
    ( Vino_misfit.Sign.t
      * int
      * int
      * (Vino_vm.Insn.reg * Vino_verify.Absval.t) list,
      cached_verdict )
    Hashtbl.t;
      (** link-verdict table ({!link_verdict}), keyed by post-link code
          digest, segment words, registry epoch and the installer's entry
          facts. Guarded by [translations_mu]; bounded by {!verdict_cap};
          not captured by snapshots. *)
  mutable verdict_hits : int;
  mutable verdict_misses : int;
  mutable exec_mode : Vino_vm.Jit.mode;
      (** how wrappers execute graft code (default
          {!Vino_vm.Jit.default_mode}) *)
  mutable flow_check : flow_check;  (** default [Flow_off] *)
  mutable snap_savers : (unit -> unit -> unit) list;
      (** snapshot registry, newest first: each saver captures one
          component's state and returns its restore thunk. Register via
          {!on_snapshot}. *)
}

val create :
  ?mem_words:int ->
  ?tick:int ->
  ?key:string ->
  ?jit_cache_cap:int ->
  ?exec_mode:Vino_vm.Jit.mode ->
  unit ->
  t
(** A fresh kernel with [mem_words] (default 2^20) of graft memory, the
    standard 10 ms timeout tick and a translation cache of
    [jit_cache_cap] entries (default {!default_jit_cache_cap}, clamped
    to >= 1). It charges the default cost tables
    ({!Vino_vm.Costs.default}, {!Vino_txn.Tcosts.default}) and starts
    with kcall-flow enforcement off. *)

val default_jit_cache_cap : int
(** 256 entries. *)

val verdict_cap : int
(** 256 entries: the bound of every kernel's link-verdict table. A miss
    that finds the table full clears it first. *)

val set_jit_cache_cap : t -> int -> unit
(** Re-bound the translation cache (clamped to >= 1), evicting
    least-recently-used entries immediately if the new capacity is
    exceeded. *)

val jit_cache_stats : t -> jit_cache_stats
(** Lifetime hit/miss/eviction counts and the current entry count of the
    translation cache. Deterministic — kept per kernel, independent of
    any installed trace sink (which receives the same counts as
    [jit.hits] / [jit.misses] / [jit.evictions] counters). *)

val translation_stats : t -> (string * int * int) list
(** Per-entry [(key, blocks, fused pairs)] of the translation cache, in a
    stable sorted order so the listing is CI-diffable. The key renders the
    code digest losslessly ([%016x] over the full 63-bit value — no
    [max_int] masking, which aliased digests differing in the top bit)
    and appends ["/b"] and the bare pcs for entries with bare
    accesses. *)

val digest_hex : Vino_misfit.Sign.t -> string
(** The lossless digest rendering used by {!translation_stats}. *)

val code_digest : t -> Vino_vm.Insn.t array -> Vino_misfit.Sign.t
(** The {!Vino_misfit.Sign} digest of [code]'s instruction words under
    this kernel's key: the translation cache's and the link-verdict
    table's key for post-link code. *)

val translate :
  t ->
  ?safe:bool array ->
  ?sign:Vino_misfit.Sign.t ->
  Vino_vm.Insn.t array ->
  Vino_vm.Jit.t
(** Translation of [code] under this kernel's cost table, cached by the
    {!code_digest} of the post-link instruction words plus [safe]:
    loading the same graft twice compiles it once, and the same code
    with a different (or no) bare set compiles separately. A hit
    compares the stored code, not only the digest. The cache keeps
    [safe], so the caller must not mutate it afterwards. [sign], when
    given, must be [code_digest t code]; a caller that already holds it
    skips the recomputation. Accesses [safe] marks are compiled to bare
    superinstructions ({!Vino_vm.Jit.translate}'s [safe]); the caller
    must have proven them in-segment for the segment the code runs in
    ({!Linker.load} passes its analysis's bare set). Thread-safe. *)

val link_verdict :
  t ->
  sign:Vino_misfit.Sign.t ->
  words:int ->
  entry:(Vino_vm.Insn.reg * Vino_verify.Absval.t) list ->
  Vino_vm.Insn.t array ->
  (unit -> link_verdict) ->
  link_verdict
(** [link_verdict t ~sign ~words ~entry code compute] is the verdict
    cached for post-link [code] ([sign] must be its {!code_digest}) linked
    into a [words]-word segment under the entry facts [entry] and the
    registry's current {!Kcall.epoch}, or [compute ()], stored for next
    time. A hit needs an equal stored code, not just an equal digest. A
    miss that finds {!verdict_cap} entries clears the table first. The
    epoch changes whenever the callable flags or the id range can, so a
    hit returns what [compute] would. Counts no trace counter and
    charges no virtual cycles. Thread-safe. *)

val verdict_stats : t -> verdict_stats
(** Lifetime hit and miss counts and the current entry count of the
    link-verdict table. Deterministic for a serial load sequence. *)

val register_kcall :
  t -> name:string -> ?callable:bool -> Kcall.impl -> Kcall.fn
(** Register a kernel function in {!registry}. *)

val set_callable : t -> int -> bool -> unit
(** Re-flag a registered function ({!Kcall.set_callable}). Loaded grafts
    are not revoked retroactively; the next
    {!Linker.load} of any image analyses it against the new callable set
    (the epoch changes, so no cached verdict is reused). That refuses an
    indirect call only where the installer's facts prove its id; the
    dispatcher refuses any non-callable id at run time.
    @raise Invalid_argument on an unknown id. *)

val seal :
  ?verify:Vino_verify.Verify.config ->
  t ->
  Vino_vm.Asm.obj ->
  (Vino_misfit.Image.t, string) result
(** Run the toolchain (MiSFIT + signing) with this kernel's key.

    With [verify], the static graft verifier runs first and sites it
    proves under [verify]'s entry facts keep their raw instructions
    ({!Vino_misfit.Rewrite.process}). If the config carries no [callable]
    predicate, the kernel supplies one from its registry, so constant
    indirect-call ids can be proven and their [Checkcall] probes elided.
    The facts bind nothing: {!Linker.load} proves each raw access again
    under the installing point's own facts. *)

val seal_unsafe : t -> Vino_vm.Asm.obj -> Vino_misfit.Image.t
(** Sign without SFI — measurement configurations only. *)

val run : t -> unit
(** Drive the simulation until no event is left. *)

val now_us : t -> float

val audit_event : t -> Audit.event -> unit
(** Record a security event at the current virtual time. *)

val make_lock :
  t ->
  ?policy:Vino_txn.Lock_policy.t ->
  ?timeout:int ->
  name:string ->
  unit ->
  Vino_txn.Lock.t
(** A lock on this kernel's engine/wheel/costs, automatically enrolled
    in the snapshot registry. *)

val graft_lock :
  t -> timeout:int -> name:string -> kcall:string -> Vino_txn.Lock.t
(** {!make_lock}, then a graft-callable kernel function named [kcall]
    that takes the lock [Exclusive] under the caller's transaction, where
    two-phase locking holds it until commit or abort. The function aborts
    the graft when it runs outside a transaction or the lock is refused. *)

(* Crash-consistent snapshots. *)

type snap
(** A captured kernel: every registered saver's state, taken together.
    Not O(world): graft memory images only the segments live at the
    capture, a restore zeroes only the segments live at the restore and
    re-copies only the audit-trail slots written since, and subsystem
    savers copy counters and small tables. This rests on free graft
    memory reading zero at all times, which {!Linker.unload}'s zeroing
    completes (see {!Segalloc}). *)

val on_snapshot : t -> (unit -> unit -> unit) -> unit
(** [on_snapshot t saver] enrolls a component: at {!snapshot} time
    [saver ()] captures its state and returns the thunk {!restore} will
    run. Restore thunks run oldest-registration-first (the engine's
    built-in saver first) and must be re-runnable — every call restores
    from the capture, enabling double-restore. Subsystem constructors
    that receive the kernel enroll themselves here. *)

val snapshot : t -> snap
(** Capture a warmed, never-run kernel. Raises [Invalid_argument] if any
    transaction is live (mid-transaction snapshot refused) or if the
    engine has already executed events — one-shot continuations cannot
    be forked, so only the pre-run state (daemons spawned, workloads
    scheduled, grafts not yet driven) is a valid fork point.

    The JIT translation cache is deliberately not captured: translations
    are pure, cost no virtual cycles, and staying warm across restores
    is the point of forking. *)

val restore : t -> snap -> unit
(** Rewind the kernel to the snapshot. Safe to call repeatedly with the
    same snapshot (each restore copies from the capture).
    @raise Invalid_argument if [snap] was taken from a different kernel. *)

type strategy = Txn_undo  (** the paper's undo-log recovery (§3.1) *)

val set_strategy : t -> strategy -> unit
(** Does nothing; kept with {!strategy} only for [hostbench/workloads.ml]. *)
