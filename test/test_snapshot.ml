(* Tests for crash-consistent kernel snapshots: capture a warmed site,
   mutate it through a full graft lifecycle, restore, and demand the replay
   be indistinguishable from a freshly built kernel. *)

module Engine = Vino_sim.Engine
module Kernel = Vino_core.Kernel
module Txn = Vino_txn.Txn
module Asm = Vino_vm.Asm
module Site = Vino_disaster.Site
module Campaign = Vino_disaster.Campaign
module Injector = Vino_disaster.Injector
module Seed = Vino_disaster.Seed
module Kcall = Vino_core.Kcall
module Audit = Vino_core.Audit
module Mem = Vino_vm.Mem

let contains msg needle =
  let n = String.length needle and m = String.length msg in
  let rec go i = i + n <= m && (String.sub msg i n = needle || go (i + 1)) in
  go 0

let seal_install (site : Site.t) source =
  match Asm.assemble source with
  | Error e -> Alcotest.failf "assemble: %s" e
  | Ok obj -> (
      match Kernel.seal site.Site.kernel obj with
      | Error e -> Alcotest.failf "seal: %s" e
      | Ok image -> (
          match site.Site.install image with
          | Error e -> Alcotest.failf "install: %s" e
          | Ok () -> ()))

(* One observable graft lifecycle: install the healthy graft, drive a
   single operation, drain the engine, and report everything a replay
   divergence would show up in. *)
let probe (site : Site.t) =
  seal_install site site.Site.healthy;
  site.Site.drive_once ();
  Kernel.run site.Site.kernel;
  let kernel = site.Site.kernel in
  ( Engine.now kernel.Kernel.engine,
    Txn.commits kernel.Kernel.txn_mgr,
    Txn.aborts kernel.Kernel.txn_mgr,
    !(site.Site.state_cell) )

(* ------------------------- snapshot refusals -------------------------- *)

let test_snapshot_refused_mid_transaction () =
  let site = Site.create Site.Stream_copy in
  let kernel = site.Site.kernel in
  ignore
    (Engine.spawn kernel.Kernel.engine ~name:"parked-txn" (fun () ->
         let (_ : Txn.t) =
           Txn.begin_ kernel.Kernel.txn_mgr ~name:"parked" ()
         in
         (* park forever: the transaction stays live across the drain *)
         Engine.suspend (fun (_ : unit -> unit) -> ())));
  Kernel.run kernel;
  Alcotest.(check int)
    "one live transaction" 1
    (Txn.live kernel.Kernel.txn_mgr);
  match Kernel.snapshot kernel with
  | (_ : Kernel.snap) -> Alcotest.fail "snapshot accepted mid-transaction"
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        "refusal names the live transaction" true
        (contains msg "mid-transaction")

let test_snapshot_refused_after_run () =
  let site = Site.create Site.Stream_copy in
  let (_ : int * int * int * int) = probe site in
  match Kernel.snapshot site.Site.kernel with
  | (_ : Kernel.snap) -> Alcotest.fail "snapshot accepted a run engine"
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        "refusal names the run engine" true
        (contains msg "already run")

let test_restore_refused_wrong_kernel () =
  let a = Site.create Site.Stream_copy
  and b = Site.create Site.Stream_copy in
  let snap = Kernel.snapshot a.Site.kernel in
  match Kernel.restore b.Site.kernel snap with
  | () -> Alcotest.fail "restore accepted a foreign snapshot"
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        "refusal names the owner" true
        (contains msg "different kernel")

(* --------------------------- restore replay --------------------------- *)

let test_restore_after_force_remove () =
  let fresh = Site.create Site.Stream_copy in
  let forked = Site.create Site.Stream_copy in
  let snap = Kernel.snapshot forked.Site.kernel in
  let (_ : int * int * int * int) = probe forked in
  forked.Site.force_remove ();
  (match forked.Site.check_default () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "default path broken after removal: %s" e);
  Kernel.restore forked.Site.kernel snap;
  Alcotest.(check bool)
    "no graft installed after restore" false
    (forked.Site.grafted ());
  Alcotest.(check bool)
    "restored replay matches a fresh site" true
    (probe fresh = probe forked)

let test_double_restore () =
  let expected = probe (Site.create Site.Stream_copy) in
  let site = Site.create Site.Stream_copy in
  let snap = Kernel.snapshot site.Site.kernel in
  Kernel.restore site.Site.kernel snap;
  let first = probe site in
  Kernel.restore site.Site.kernel snap;
  let second = probe site in
  Alcotest.(check bool) "first restore replays fresh" true (first = expected);
  Alcotest.(check bool) "second restore replays fresh" true (second = expected)

(* ------------------------ whole-state equality ------------------------ *)

(* One trial through the campaign's public steps: derive the variant,
   pin its witness, seal and install it, drive the workload (with a
   contender when the variant wants one), remove the graft and check the
   default path. *)
let trial (site : Site.t) ~kind ~seed ~index =
  let rng = Seed.derive ~seed index in
  let variant =
    Injector.apply kind ~rng ~rig:site.Site.rig site.Site.healthy
  in
  Option.iter (Site.pin_flow_witness site) variant.Injector.flow_witness;
  let installed =
    match Asm.assemble variant.Injector.source with
    | Error e -> Error e
    | Ok obj -> (
        match Kernel.seal site.Site.kernel obj with
        | Error e -> Error e
        | Ok image -> site.Site.install image)
  in
  site.Site.drive ();
  if Result.is_ok installed && variant.Injector.wants_contender then
    Site.spawn_contender site ~delay:(4_000 + Seed.int rng 4_000);
  Kernel.run site.Site.kernel;
  site.Site.force_remove ();
  ignore (site.Site.check_default ())

(* Everything a restore must put back that fingerprints never read: every
   word of memory, graft segments included, and the audit trail. *)
let memory_and_audit (site : Site.t) =
  let k = site.Site.kernel in
  ( Mem.blit_out k.Kernel.mem 0 (Mem.size k.Kernel.mem),
    Audit.entries k.Kernel.audit,
    Audit.total k.Kernel.audit,
    Audit.dropped k.Kernel.audit )

let first_difference a b =
  let n = min (Array.length a) (Array.length b) in
  let rec go i =
    if i >= n then None else if a.(i) <> b.(i) then Some i else go (i + 1)
  in
  go 0

(* Every family x injector kind, each trial on its family's one site and
   followed by a restore (so all but the first restore of each capture
   take the incremental paths): memory and the audit trail must equal what
   was captured right after the snapshot. *)
let test_restore_whole_state () =
  let sites =
    List.map
      (fun family ->
        let site = Site.create family in
        let snap = Kernel.snapshot site.Site.kernel in
        (family, (site, snap, memory_and_audit site)))
      Site.all_families
  in
  let product = List.length Site.all_families * List.length Injector.all in
  for index = 0 to product - 1 do
    let family, kind = Campaign.combo index in
    let site, snap, (mem0, audit0, total0, dropped0) =
      List.assoc family sites
    in
    trial site ~kind ~seed:5 ~index;
    let dirty, _, total1, _ = memory_and_audit site in
    Kernel.restore site.Site.kernel snap;
    let mem, audit, total, dropped = memory_and_audit site in
    let label =
      Printf.sprintf "%s/%s" (Site.family_name family) (Injector.name kind)
    in
    (match first_difference mem0 mem with
    | None -> ()
    | Some addr ->
        Alcotest.failf "%s: word %d is %d after restore, %d captured" label
          addr mem.(addr) mem0.(addr));
    Alcotest.(check bool) (label ^ ": audit entries") true (audit = audit0);
    Alcotest.(check int) (label ^ ": audit total") total0 total;
    Alcotest.(check int) (label ^ ": audit dropped") dropped0 dropped;
    (* the trial must have changed something for the checks to bite *)
    Alcotest.(check bool)
      (label ^ ": the trial dirtied memory or the trail")
      true
      (first_difference mem0 dirty <> None || total1 <> total0)
  done

(* Two captures with graft segments live. A restore must zero the
   segments live now and lay back the ones live at its capture, whichever
   capture was restored last. *)
let test_restore_live_segments_two_captures () =
  let k = Kernel.create ~mem_words:(1 lsl 12) () in
  let image =
    match Kernel.seal k (Asm.assemble_exn [ Li (Asm.r0, 0); Ret ]) with
    | Ok image -> image
    | Error e -> Alcotest.fail e
  in
  let load_and_fill v =
    match Vino_core.Linker.load k ~words:64 image with
    | Error e -> Alcotest.fail e
    | Ok l ->
        let seg = l.Vino_core.Linker.seg in
        Mem.fill k.Kernel.mem seg.Mem.base seg.Mem.size v
  in
  let memory () = Mem.blit_out k.Kernel.mem 0 (Mem.size k.Kernel.mem) in
  let expect what captured =
    match first_difference captured (memory ()) with
    | None -> ()
    | Some addr ->
        Alcotest.failf "%s: word %d differs from the capture" what addr
  in
  let snap_a = Kernel.snapshot k and mem_a = memory () in
  load_and_fill 7;
  let snap_b = Kernel.snapshot k and mem_b = memory () in
  load_and_fill 9;
  Kernel.restore k snap_a;
  expect "A after B's branch" mem_a;
  Kernel.restore k snap_b;
  expect "B after A" mem_b;
  load_and_fill 11;
  Kernel.restore k snap_a;
  expect "A after B's second branch" mem_a

(* ------------------------ kcall registrations ------------------------- *)

let nop_kcall (_ : Kcall.ctx) = Kcall.ok

let test_restore_drops_new_kcalls () =
  let k = Kernel.create ~mem_words:(1 lsl 12) () in
  let limit = Kcall.id_limit k.Kernel.registry in
  let snap = Kernel.snapshot k in
  let x = Kernel.register_kcall k ~name:"x" nop_kcall in
  Kernel.restore k snap;
  let registry = k.Kernel.registry in
  Alcotest.(check bool)
    "x no longer resolves by name" true
    (Kcall.find_by_name registry "x" = None);
  Alcotest.(check bool)
    "x no longer resolves by id" true
    (Kcall.find registry x.Kcall.id = None);
  Alcotest.(check int) "id limit rewound" limit (Kcall.id_limit registry);
  let y = Kernel.register_kcall k ~name:"y" nop_kcall in
  Alcotest.(check int) "y reuses x's id" x.Kcall.id y.Kcall.id;
  Alcotest.(check bool)
    "that id resolves to y" true
    (match Kcall.find registry y.Kcall.id with
    | Some f -> f == y
    | None -> false);
  Alcotest.(check bool)
    "x still gone" true
    (Kcall.find_by_name registry "x" = None);
  Kernel.restore k snap;
  let x' = Kernel.register_kcall k ~name:"x" nop_kcall in
  Alcotest.(check int) "x registers again" x.Kcall.id x'.Kcall.id

(* Two captures: B holds a registration A lacks. Restoring B after A (and
   after a registration A's branch made) must bring B's table back. *)
let test_restore_kcalls_two_captures () =
  let k = Kernel.create ~mem_words:(1 lsl 12) () in
  let registry = k.Kernel.registry in
  let snap_a = Kernel.snapshot k in
  let x = Kernel.register_kcall k ~name:"x" nop_kcall in
  let snap_b = Kernel.snapshot k in
  Kernel.restore k snap_a;
  let y = Kernel.register_kcall k ~name:"y" nop_kcall in
  Kernel.restore k snap_b;
  let resolves name fn =
    match Kcall.find_by_name registry name with
    | Some f -> f == fn
    | None -> false
  in
  Alcotest.(check bool) "x back by name" true (resolves "x" x);
  Alcotest.(check bool)
    "x back by id" true
    (match Kcall.find registry x.Kcall.id with
    | Some f -> f == x
    | None -> false);
  Alcotest.(check bool)
    "y gone" true
    (Kcall.find_by_name registry "y" = None);
  Kernel.restore k snap_a;
  Alcotest.(check bool)
    "x gone again" true
    (Kcall.find_by_name registry "x" = None);
  Alcotest.(check bool) "y still gone" false (resolves "y" y)

(* --------------- force_remove clears the pinned flow table ------------ *)

let test_force_remove_clears_flow_pin () =
  List.iter
    (fun family ->
      let site = Site.create family in
      let check what expected =
        Alcotest.(check string)
          (Site.family_name family ^ ": " ^ what)
          expected
          (match site.Site.kernel.Kernel.flow_check with
          | Kernel.Flow_off -> "off"
          | Flow_own -> "own"
          | Flow_pinned _ -> "pinned")
      in
      check "off by default" "off";
      site.Site.force_remove ();
      check "an off check stays off" "off";
      Site.pin_flow_witness site site.Site.healthy;
      check "witness pinned" "pinned";
      site.Site.force_remove ();
      check "pin cleared with the graft, own tables checked" "own";
      site.Site.force_remove ();
      check "idempotent" "own")
    Site.all_families

(* ------------------------- forked campaigns --------------------------- *)

(* The tentpole contract, as a property: for any campaign seed and length,
   trials forked from a warmed snapshot produce the byte-identical report
   a fresh-site-per-trial campaign does — every fingerprint (which folds
   in virtual time and txn/lock/audit counters) included. *)
let prop_forked_campaign_equals_fresh =
  QCheck2.Test.make ~name:"forked campaign = fresh campaign (any seed/count)"
    ~count:6
    QCheck2.Gen.(pair (int_range 0 999) (int_range 1 10))
    (fun (seed, count) ->
      Campaign.run ~recheck_every:0 ~fork:true ~seed ~count ()
      = Campaign.run ~recheck_every:0 ~fork:false ~seed ~count ())

let test_recheck_sampling_equivalent () =
  let run recheck_every = Campaign.run ~recheck_every ~seed:11 ~count:12 () in
  let every = run 1 in
  Alcotest.(check bool) "campaign clean" true (Campaign.ok every);
  Alcotest.(check bool) "sampled recheck, same report" true (run 3 = every);
  Alcotest.(check bool) "disabled recheck, same report" true (run 0 = every)

let suite =
  [
    ( "snapshot",
      [
        Alcotest.test_case "refused mid-transaction" `Quick
          test_snapshot_refused_mid_transaction;
        Alcotest.test_case "refused once the engine has run" `Quick
          test_snapshot_refused_after_run;
        Alcotest.test_case "restore refuses a foreign snapshot" `Quick
          test_restore_refused_wrong_kernel;
        Alcotest.test_case "restore after force_remove replays fresh" `Quick
          test_restore_after_force_remove;
        Alcotest.test_case "double restore replays fresh twice" `Quick
          test_double_restore;
        Alcotest.test_case "restore: memory and audit trail equal the capture"
          `Quick test_restore_whole_state;
        Alcotest.test_case "restore with live segments, two captures" `Quick
          test_restore_live_segments_two_captures;
        Alcotest.test_case "restore drops kcalls registered since" `Quick
          test_restore_drops_new_kcalls;
        Alcotest.test_case "restore kcalls across two captures" `Quick
          test_restore_kcalls_two_captures;
        Alcotest.test_case "force_remove clears the pinned flow table" `Quick
          test_force_remove_clears_flow_pin;
        QCheck_alcotest.to_alcotest prop_forked_campaign_equals_fresh;
        Alcotest.test_case "recheck sampling leaves the report unchanged"
          `Quick test_recheck_sampling_equivalent;
      ] );
  ]
