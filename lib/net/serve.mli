(** Multi-tenant graft server: the long-running workload behind
    [vino serve].

    N tenants each install an event-graft handler on their own TCP port
    (§3.5): the handler families mirror the extension kinds measured
    elsewhere in the repo — read-ahead-style sequential scans, an
    eviction-style maximum scan, a scheduler-delegate countdown and an
    HTTP-style branchy responder. An open-loop traffic generator delivers
    connection events at a fixed per-tenant arrival interval; the kernel
    applies three multi-tenant controls on top of the usual SFI/txn
    machinery:

    - {b admission control}: each tenant has an in-flight request cap;
      arrivals beyond it are shed and audited
      ({!Vino_core.Audit.event.Admission_rejected});
    - {b resource-limit inheritance}: every tenant's limits are a child
      account {!Vino_txn.Rlimit.derive}d from a per-shard server account,
      so a runaway tenant (one that floods [net.send]) exhausts only its
      own slice;
    - {b bounded translation cache}: tenant churn (periodic handler
      reinstalls) exercises the kernel's LRU translation cache
      ({!Vino_core.Kernel.jit_cache_stats}).

    The tenant set is partitioned across a fixed number of shards, each
    shard a fully independent kernel simulation, and shards are mapped
    over the {!Vino_par.Pool} domain pool with the deterministic ordered
    merge: the report is a pure function of the {!config}, byte-identical
    at any [-j]. *)

type path = Interp | Translated | Verified
(** Execution path for every tenant handler: interpreted, closure-threaded
    translation, or translation of handlers sealed under the static
    verifier (their raw payload accesses, which the linker proves
    in-segment again at install, compile to bare superinstructions). *)

val path_name : path -> string
(** ["interp"] / ["translated"] / ["verified-translated"]. *)

val all_paths : path list

type config = {
  tenants : int;
  requests : int;  (** arrivals per tenant *)
  interval : int;  (** cycles between a tenant's arrivals (open loop) *)
  pause : int;
      (** extra idle cycles inserted after every [reinstall_every]-th
          arrival, so a tenant drains to zero in-flight between bursts —
          the window in which the churn reinstall can actually run *)
  max_inflight : int;  (** per-tenant admission cap *)
  jit_cache_cap : int;  (** per-shard-kernel translation cache capacity *)
  reinstall_every : int;
      (** reinstall a tenant's handler every k-th arrival (0 = never):
          models tenant churn and drives translation-cache traffic *)
  shards : int;
      (** fixed shard count — part of the workload definition, {e not}
          the [-j] level, so results never depend on the pool size *)
  path : path;
  seed : int;  (** perturbs each tenant's per-request work *)
  runaway : int option;
      (** a tenant index that floods [net.send] instead of doing useful
          work — capped by its inherited [Net_packets] slice *)
  net_quota : int;  (** per-tenant [Net_packets] slice *)
}

val default : config
(** 8 tenants x 24 requests, 4000-cycle interval with a 24000-cycle
    inter-burst pause, in-flight cap 4, cache capacity 2, reinstall
    every 6th arrival, 4 shards, translated path, seed 42, no runaway,
    net quota 8. *)

type report = {
  config : config;
  samples : (int * int * float) list;
      (** [(tenant, request, latency_us)] for every served request,
          sorted by tenant then request — arrival-to-response latency in
          virtual microseconds, independent of completion interleaving *)
  per_tenant : (int * string * int * int) list;
      (** [(tenant, family, served, rejected)], ascending tenant *)
  served : int;
  rejected : int;  (** arrivals shed by admission control *)
  admission_audited : int;
      (** [Admission_rejected] entries across all shard audit trails *)
  handler_failures : int;
  proc_failures : int;
      (** engine processes that died with an uncaught exception, summed
          over shard kernels ({!Vino_sim.Engine.failures}); a served
          request's worker must never die, so this is 0 on every healthy
          run. No CLI report prints it. *)
  transmitted : int;  (** packets that reached the simulated wire *)
  quota_denials : int;  (** [net.send]s refused by the tenant's slice *)
  jit_hits : int;
  jit_misses : int;
  jit_evictions : int;
  verdict_hits : int;
  verdict_misses : int;
      (** link-verdict table counts summed over shard kernels
          ({!Vino_core.Kernel.verdict_stats}); no CLI report prints
          them *)
  drain_us : float;
      (** makespan: virtual time of the last response across shards *)
  throughput_rps : float;  (** served / makespan *)
}

val family_name : int -> string
(** Handler family installed for a tenant index: ["ra"], ["evict"],
    ["sched"] or ["http"] (runaway tenants report ["flood"]). *)

val graft_source : tenant:int -> flood:bool -> Vino_vm.Asm.item list
(** The handler a tenant installs: its family's body ([flood] selects the
    runaway body) between the prologue that bakes the tenant id into a
    dead register and takes the tenant lock through ["serve.acquire"], and
    the epilogue that reports through ["serve.done"]. Both kcalls take
    the tenant from r1 and abort the handler unless it was installed
    with that tenant's credential (one per tenant per shard), so no
    tenant can take another's lock or report for it (Rule 8). *)

val register_kcalls :
  Vino_core.Kernel.t ->
  tenants:int list ->
  creds:Vino_core.Cred.t array ->
  locks:Vino_txn.Lock.t array ->
  on_done:(int -> stamp:int -> req:int -> unit) ->
  unit
(** Register ["serve.acquire"] and ["serve.done"] on one shard's kernel,
    as {!run} does for every shard. [tenants] lists the shard's tenant
    ids; the [li]-th has credential [creds.(li)] and lock [locks.(li)].
    Both kcalls take a tenant id from r1 and abort the caller unless its
    credential is physically that tenant's (Rule 8); an id of no listed
    tenant raises [Invalid_argument], which aborts the caller too.
    ["serve.acquire"] takes the tenant's lock under the caller's
    transaction. ["serve.done"] reads the arrival stamp from r2 and the
    request id from r3, and [on_done li ~stamp ~req] runs when the
    caller's transaction commits. *)

val run : ?pool:Vino_par.Pool.t -> config -> report
(** Run the scenario. With [?pool] and no trace sink installed, shards
    fan out across domains ({!Vino_par.Pool.map}). Deterministic: the
    report depends only on the config, never on [pool] (shards are
    merged in index order).
    @raise Invalid_argument on a non-positive tenant/request/shard
    count. *)

val latencies : ?tenant:int -> report -> float list
(** Served-request latencies in sample order, optionally restricted to
    one tenant. *)
