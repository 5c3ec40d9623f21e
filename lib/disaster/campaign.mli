(** Seeded fault-injection campaigns (the disaster rig's driver).

    A campaign of [count] injections walks the (family x injector) product
    — index [i] hits family [i mod 5] with injector [(i / 5) mod 7], so any
    count >= 35 covers every combination — building a fresh {!Site} per
    injection, deriving its misbehaving graft from the campaign seed,
    running the workload, and checking every post-recovery invariant.

    Each injection is (by default) run twice with the same derived seed;
    differing fingerprints are reported as a determinism violation.

    Trials normally {e fork} a warmed site: each worker domain builds one
    site per family, snapshots its kernel right after creation
    ({!Vino_core.Kernel.snapshot}), and restores that snapshot before
    every trial instead of rebuilding the world. The restored site is
    byte-equivalent to a fresh one — same fingerprints, same report —
    while skipping site construction, about half of a fresh trial's
    host time. *)

type record = {
  index : int;
  family : Site.family;
  kind : Injector.kind;
  note : string;  (** the injector's seeded parameters *)
  expect : Injector.expectation;
  observed : Injector.expectation;
  violations : string list;  (** empty iff every invariant held *)
  fingerprint : string;
      (** seeded variant parameters + outcome + virtual time +
          txn/lock/audit counters; otherwise name-free so process-global
          counters don't alias as nondeterminism *)
  vtime : int;  (** virtual cycles the injection's kernel ran for *)
}

type report = { seed : int; count : int; records : record list }

val combo : int -> Site.family * Injector.kind
(** The (family, injector) pair campaign index [i] hits. *)

val run_injection : seed:int -> index:int -> record
(** One injection of campaign [seed] (fresh site, no determinism re-run). *)

val run :
  ?check_determinism:bool ->
  ?fork:bool ->
  ?recheck_every:int ->
  ?strategy:Vino_core.Kernel.strategy ->
  ?pool:Vino_par.Pool.t ->
  seed:int ->
  count:int ->
  unit ->
  report
(** With [?pool], trials fan out across domains; every trial is a pure
    function of [seed] and its index, so the report is identical at any
    pool size.

    [fork] (default [true]) restores a per-domain warmed site snapshot
    instead of building a fresh site per trial; pass [~fork:false] when
    per-trial host-side state must not persist (e.g. under tracing, where
    the warm JIT cache would skew translation counters).

    [recheck_every] (default 1: every trial) samples the same-seed
    determinism re-run to every [n]-th index; [0] disables it, as does
    [~check_determinism:false].

    [strategy] (default {!Vino_core.Kernel.Txn_undo}) selects the
    recovery cost model charged at graft dispatch and on faults. *)

val ok : report -> bool

val total_vtime : report -> int
(** Sum of every record's virtual elapsed cycles (throughput support). *)

val violations : report -> string list
(** All violations, each prefixed with its injection's index/family/kind. *)

val families_covered : report -> int
val injectors_covered : report -> int
val pp : Format.formatter -> report -> unit
