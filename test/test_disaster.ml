(* Tests for the disaster rig: seeded fault-injection campaigns with
   post-recovery invariant checks across all five graft-point families. *)

module Seed = Vino_disaster.Seed
module Injector = Vino_disaster.Injector
module Site = Vino_disaster.Site
module Campaign = Vino_disaster.Campaign
module Engine = Vino_sim.Engine
module Kernel = Vino_core.Kernel
module Txn = Vino_txn.Txn
module Lock = Vino_txn.Lock

(* ------------------------------ seed ---------------------------------- *)

let test_seed_deterministic () =
  let a = Seed.make 7 and b = Seed.make 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Seed.bits a) (Seed.bits b)
  done;
  let c = Seed.make 8 in
  Alcotest.(check bool) "different seed, different stream" true
    (List.init 10 (fun _ -> Seed.bits a)
    <> List.init 10 (fun _ -> Seed.bits c))

let test_seed_derive_independent () =
  let draws t = List.init 10 (fun _ -> Seed.bits t) in
  let a = draws (Seed.derive ~seed:1 0) in
  Alcotest.(check bool) "adjacent indices decorrelated" true
    (a <> draws (Seed.derive ~seed:1 1));
  Alcotest.(check bool) "re-derivation replays" true
    (a = draws (Seed.derive ~seed:1 0))

let test_seed_bounds () =
  let t = Seed.make 3 in
  for _ = 1 to 1000 do
    let v = Seed.range t ~lo:10 ~hi:20 in
    Alcotest.(check bool) "in range" true (v >= 10 && v < 20)
  done

(* --------------------------- injectors -------------------------------- *)

let test_injector_same_seed_same_variant () =
  let site = Site.create Site.Stream_copy in
  List.iter
    (fun kind ->
      let v1 =
        Injector.apply kind ~rng:(Seed.derive ~seed:5 9) ~rig:site.Site.rig
          site.Site.healthy
      in
      let v2 =
        Injector.apply kind ~rng:(Seed.derive ~seed:5 9) ~rig:site.Site.rig
          site.Site.healthy
      in
      Alcotest.(check bool)
        (Injector.name kind ^ " reproducible")
        true
        (v1.Injector.source = v2.Injector.source
        && v1.Injector.expect = v2.Injector.expect))
    Injector.all

let test_injector_changes_source () =
  let site = Site.create Site.Stream_copy in
  List.iter
    (fun kind ->
      let v =
        Injector.apply kind ~rng:(Seed.derive ~seed:5 9) ~rig:site.Site.rig
          site.Site.healthy
      in
      Alcotest.(check bool)
        (Injector.name kind ^ " mutates the source")
        true
        (v.Injector.source <> site.Site.healthy))
    Injector.all

(* ------------------------ single injections --------------------------- *)

(* Find the first campaign index that hits (family, kind). *)
let index_of family kind =
  let rec go i =
    if i > 1000 then Alcotest.fail "combo not found"
    else
      let f, k = Campaign.combo i in
      if f = family && k = kind then i else go (i + 1)
  in
  go 0

let check_clean r =
  match r.Campaign.violations with
  | [] -> ()
  | vs -> Alcotest.failf "violations: %s" (String.concat "; " vs)

let test_wild_store_contained () =
  (* Wild stores are defanged by the sandbox: whatever the outcome for the
     graft, the targeted kernel word is untouched (checked by the record's
     posts) and every invariant holds. *)
  List.iter
    (fun family ->
      let r =
        Campaign.run_injection ~seed:11
          ~index:(index_of family Injector.Wild_store)
      in
      check_clean r)
    Site.all_families

let test_infinite_loop_recovered () =
  List.iter
    (fun family ->
      let r =
        Campaign.run_injection ~seed:11
          ~index:(index_of family Injector.Infinite_loop)
      in
      check_clean r;
      Alcotest.(check bool)
        (Site.family_name family ^ ": loop recovered")
        true
        (r.Campaign.observed = Injector.Recovered))
    Site.all_families

let test_lock_hog_aborted_and_lock_released () =
  let r =
    Campaign.run_injection ~seed:11
      ~index:(index_of Site.Stream_copy Injector.Lock_hog)
  in
  check_clean r;
  Alcotest.(check bool) "recovered" true
    (r.Campaign.observed = Injector.Recovered)

let test_bad_call_both_variants_appear () =
  (* Across many seeds the bad-call injector must produce both the
     statically-provable variant (load rejected) and the laundered variant
     (caught by the runtime probe) — and both must leave a clean site. *)
  let outcomes = ref [] in
  for seed = 1 to 12 do
    let r =
      Campaign.run_injection ~seed
        ~index:(index_of Site.Stream_copy Injector.Bad_call)
    in
    check_clean r;
    outcomes := r.Campaign.observed :: !outcomes
  done;
  Alcotest.(check bool) "some loads rejected by the static check" true
    (List.mem Injector.Rejected !outcomes);
  Alcotest.(check bool) "some caught at run time" true
    (List.mem Injector.Recovered !outcomes)

let test_undo_bomb_still_rolls_back () =
  let r =
    Campaign.run_injection ~seed:11
      ~index:(index_of Site.Fs_readahead Injector.Undo_bomb)
  in
  check_clean r

let test_nested_fault_merged_state_recovered () =
  List.iter
    (fun family ->
      let r =
        Campaign.run_injection ~seed:11
          ~index:(index_of family Injector.Nested_fault)
      in
      check_clean r)
    [ Site.Stream_copy; Site.Vmem_evict ]

(* ----------------------------- campaign ------------------------------- *)

let test_campaign_full_product_clean () =
  (* 40 injections = the full 5-family x 8-injector product, each run twice
     (determinism check). The ISSUE's acceptance bar. *)
  let report = Campaign.run ~seed:1 ~count:40 () in
  Alcotest.(check int) "all families" 5 (Campaign.families_covered report);
  Alcotest.(check int) "all injectors" 8 (Campaign.injectors_covered report);
  (match Campaign.violations report with
  | [] -> ()
  | vs ->
      Alcotest.failf "%d violations:\n%s" (List.length vs)
        (String.concat "\n" vs));
  Alcotest.(check bool) "report ok" true (Campaign.ok report)

let test_campaign_deterministic_across_runs () =
  let fingerprints report =
    List.map (fun r -> r.Campaign.fingerprint) report.Campaign.records
  in
  let a = Campaign.run ~recheck_every:0 ~seed:42 ~count:10 () in
  let b = Campaign.run ~recheck_every:0 ~seed:42 ~count:10 () in
  Alcotest.(check (list string))
    "same seed, same fingerprints" (fingerprints a) (fingerprints b);
  let c = Campaign.run ~recheck_every:0 ~seed:43 ~count:10 () in
  Alcotest.(check bool) "different seed, different campaign" true
    (fingerprints a <> fingerprints c)

(* ------------------------ recovery cost golden ------------------------ *)

(* The recovery-cost table to the cycle, as [bench/main.exe quick
   --json] writes it (see [Golden]). *)
let test_recovery_cost_golden () =
  Golden.check @@ fun check ->
  check "Recovery cost" (Vino_measure.Sc_disaster.table ())
    [
      ("healthy graft (commit path)", 8985);
      ("detect+recover: wild-store", 8994);
      ("detect+recover: bad-call", 9125);
      ("detect+recover: infinite-loop", 209116);
      ("detect+recover: lock-hog", 44259);
      ("detect+recover: resource-hog", 9157);
      ("detect+recover: undo-bomb", 9821);
      ("detect+recover: nested-fault", 16419);
      ("detect+recover: flow-hijack", 14626);
      ("campaign trial, mean of 40 (virtual us)", 13774022);
      ("campaign throughput (trials per virtual second)", 1045);
    ]

let suite =
  [
    ( "disaster",
      [
        Alcotest.test_case "seed: deterministic stream" `Quick
          test_seed_deterministic;
        Alcotest.test_case "seed: derived streams independent" `Quick
          test_seed_derive_independent;
        Alcotest.test_case "seed: range bounds" `Quick test_seed_bounds;
        Alcotest.test_case "injector: same seed, same variant" `Quick
          test_injector_same_seed_same_variant;
        Alcotest.test_case "injector: variant differs from healthy" `Quick
          test_injector_changes_source;
        Alcotest.test_case "wild store contained on every family" `Quick
          test_wild_store_contained;
        Alcotest.test_case "infinite loop recovered on every family" `Quick
          test_infinite_loop_recovered;
        Alcotest.test_case "lock hog aborted, lock released" `Quick
          test_lock_hog_aborted_and_lock_released;
        Alcotest.test_case "bad call: rejected statically or caught live"
          `Quick test_bad_call_both_variants_appear;
        Alcotest.test_case "undo bomb: abort still completes" `Quick
          test_undo_bomb_still_rolls_back;
        Alcotest.test_case "nested fault: merged state recovered" `Quick
          test_nested_fault_merged_state_recovered;
        Alcotest.test_case "campaign: full product, all invariants" `Slow
          test_campaign_full_product_clean;
        Alcotest.test_case "campaign: same seed, same outcomes" `Quick
          test_campaign_deterministic_across_runs;
        Alcotest.test_case "recovery cost table: golden cycles" `Quick
          test_recovery_cost_golden;
      ] );
  ]
