(* The campaign driver: seeded fault-injection sweeps across the five
   graft-point families, with post-recovery invariant checks after every
   injection and a same-seed re-run to pin determinism. *)

module Asm = Vino_vm.Asm
module Engine = Vino_sim.Engine
module Txn = Vino_txn.Txn
module Lock = Vino_txn.Lock
module Kernel = Vino_core.Kernel
module Audit = Vino_core.Audit

type record = {
  index : int;
  family : Site.family;
  kind : Injector.kind;
  note : string;
  expect : Injector.expectation;
  observed : Injector.expectation;
  violations : string list;
  fingerprint : string;
  vtime : int;
}

type report = { seed : int; count : int; records : record list }

(* index -> (family, injector): walking the index covers the full 5 x 8
   product every 40 injections, whatever the count. *)
let combo index =
  let families = Site.all_families and kinds = Injector.all in
  let nf = List.length families in
  ( List.nth families (index mod nf),
    List.nth kinds (index / nf mod List.length kinds) )

let expectation_violation ~expect ~observed =
  match (expect, observed) with
  | Injector.Rejected, Injector.Rejected
  | Injector.Recovered, Injector.Recovered
  (* Confinement is not detection: a contained graft may also die of its
     own confined damage and be removed. *)
  | Injector.Contained, (Injector.Contained | Injector.Recovered) ->
      []
  | _ ->
      [
        Printf.sprintf "expected %s, observed %s"
          (Injector.expectation_name expect)
          (Injector.expectation_name observed);
      ]

(* Everything observable that could differ if the run were not a pure
   function of the seed: the variant's seeded parameters, outcome, virtual
   time, transaction and lock traffic, audit volume. Deliberately name-free
   otherwise, so per-process-global counters (uids, instance numbers) don't
   alias as nondeterminism. *)
let fingerprint (site : Site.t) ~note ~observed =
  let engine = site.kernel.Kernel.engine in
  let mgr = site.kernel.Kernel.txn_mgr in
  Printf.sprintf "[%s] %s now=%d txn=%d/%d/%d undo=%d/%d lock=%d/%d/%d audit=%d"
    note
    (Injector.expectation_name observed)
    (Engine.now engine) (Txn.begins mgr) (Txn.commits mgr) (Txn.aborts mgr)
    (Txn.undo_failures mgr)
    (Txn.deferred_failures mgr)
    (Lock.acquisitions site.rig_lock)
    (Lock.timeouts_fired site.rig_lock)
    (Lock.holder_aborts_requested site.rig_lock)
    (Audit.count site.kernel.Kernel.audit)

(* Warmed sites, one per family per worker domain: [Site.create] only
   builds subsystems and schedules their daemons — it never steps the
   engine — so the kernel snapshot taken right after creation is valid and
   restoring it is byte-equivalent to building a fresh site (the only
   divergence is process-global name counters, which no fingerprint
   reads). Creation is about half of a fresh trial's host time (the
   per-injector split is in EXPERIMENTS.md): on one thread forking makes
   a campaign about 1.6-2.2x faster (the [wall: forked speedup over
   fresh] row of [bench/main.exe disaster]); the trial's own work
   remains. *)
let warmed : (Site.family, Site.t * Kernel.snap) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let forked_site family =
  let cache = Domain.DLS.get warmed in
  match Hashtbl.find_opt cache family with
  | Some (site, snap) ->
      Kernel.restore site.Site.kernel snap;
      site
  | None ->
      let site = Site.create family in
      let snap = Kernel.snapshot site.Site.kernel in
      Hashtbl.replace cache family (site, snap);
      site

let inject (site : Site.t) ~kind ~seed ~index =
  let rng = Seed.derive ~seed index in
  let variant = Injector.apply kind ~rng ~rig:site.rig site.healthy in
  Option.iter (Site.pin_flow_witness site) variant.Injector.flow_witness;
  let install_result =
    match Asm.assemble variant.source with
    | Error e -> Error ("assemble: " ^ e)
    | Ok obj -> (
        match Kernel.seal site.kernel obj with
        | Error e -> Error e
        | Ok image -> site.install image)
  in
  let observed =
    match install_result with
    | Error _reason ->
        (* The load was refused; the workload must still run, served
           entirely by the default path. *)
        site.drive ();
        Kernel.run site.kernel;
        Injector.Rejected
    | Ok () ->
        site.drive ();
        if variant.wants_contender then
          Site.spawn_contender site ~delay:(4_000 + Seed.int rng 4_000);
        Kernel.run site.kernel;
        if site.grafted () then Injector.Contained else Injector.Recovered
  in
  site.force_remove ();
  let violations =
    Invariant.check_universal site
    @ Invariant.check_segments_restored site
    @ Invariant.check_posts site variant.posts
    @ expectation_violation ~expect:variant.expect ~observed
    @ (match site.check_default () with Ok () -> [] | Error e -> [ e ])
  in
  {
    index;
    family = site.family;
    kind;
    note = variant.note;
    expect = variant.expect;
    observed;
    violations;
    fingerprint = fingerprint site ~note:variant.note ~observed;
    vtime = Engine.now site.kernel.Kernel.engine;
  }

let run_injection ~seed ~index =
  let family, kind = combo index in
  inject (Site.create family) ~kind ~seed ~index

let run_trial ~check_determinism ~fork ~recheck_every ~strategy ~seed index =
  let run_once () =
    let family, kind = combo index in
    let site = if fork then forked_site family else Site.create family in
    Kernel.set_strategy site.Site.kernel strategy;
    inject site ~kind ~seed ~index
  in
  let r1 = run_once () in
  let recheck =
    check_determinism && recheck_every > 0 && index mod recheck_every = 0
  in
  if not recheck then r1
  else
    let r2 = run_once () in
    if String.equal r1.fingerprint r2.fingerprint then r1
    else
      {
        r1 with
        violations =
          r1.violations
          @ [
              Printf.sprintf "nondeterministic: re-run gave %S, first run %S"
                r2.fingerprint r1.fingerprint;
            ];
      }

(* Every trial is a pure function of (seed, index): a forked trial restores
   its domain's warmed site to the post-creation snapshot, a fresh trial
   builds its own site; records come back in index order whatever the
   schedule. *)
let run ?(check_determinism = true) ?(fork = true) ?(recheck_every = 1)
    ?(strategy = Kernel.Txn_undo) ?pool ~seed ~count () =
  let records =
    Vino_par.Pool.map_scoped ?pool
      (run_trial ~check_determinism ~fork ~recheck_every ~strategy ~seed)
      (List.init count Fun.id)
  in
  { seed; count; records }

let total_vtime report =
  List.fold_left (fun acc r -> acc + r.vtime) 0 report.records

let violations report =
  List.concat_map
    (fun r ->
      List.map
        (fun v ->
          Printf.sprintf "#%d %s/%s: %s" r.index
            (Site.family_name r.family)
            (Injector.name r.kind) v)
        r.violations)
    report.records

let ok report = List.for_all (fun r -> r.violations = []) report.records

let distinct of_record report =
  List.sort_uniq compare (List.map of_record report.records)

let families_covered report =
  List.length (distinct (fun r -> r.family) report)

let injectors_covered report = List.length (distinct (fun r -> r.kind) report)

let outcome_count report o =
  List.length (List.filter (fun r -> r.observed = o) report.records)

let pp ppf report =
  let open Format in
  fprintf ppf "disaster campaign: seed=%d count=%d@," report.seed report.count;
  fprintf ppf "  coverage: %d/%d families, %d/%d injectors@,"
    (families_covered report)
    (List.length Site.all_families)
    (injectors_covered report)
    (List.length Injector.all);
  fprintf ppf "  outcomes: %d rejected at load, %d contained, %d recovered@,"
    (outcome_count report Injector.Rejected)
    (outcome_count report Injector.Contained)
    (outcome_count report Injector.Recovered);
  match violations report with
  | [] -> fprintf ppf "  invariants: all hold@,"
  | vs ->
      fprintf ppf "  INVARIANT VIOLATIONS (%d):@," (List.length vs);
      List.iter (fun v -> fprintf ppf "    %s@," v) vs
