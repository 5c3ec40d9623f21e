(* Tests for the time-out–based lock manager. *)

module Engine = Vino_sim.Engine
module Tick = Vino_sim.Tick
module Lock = Vino_txn.Lock
module Lock_policy = Vino_txn.Lock_policy

let fixture ?(tick = 1000) ?policy ?timeout () =
  let e = Engine.create () in
  let wheel = Tick.create e ~tick () in
  let lock = Lock.create e ~wheel ?policy ?timeout ~name:"test-lock" () in
  (e, lock)

let acquire_exn lock mode owner =
  match Lock.acquire lock mode owner () with
  | Lock.Granted h -> h
  | Lock.Gave_up r -> Alcotest.failf "unexpected give-up: %s" r

let test_uncontended_shared () =
  let e, lock = fixture () in
  let done_ = ref 0 in
  for k = 1 to 3 do
    ignore
      (Engine.spawn e (fun () ->
           let h =
             acquire_exn lock Lock_policy.Shared
               (Lock.plain_owner (Printf.sprintf "reader%d" k))
           in
           incr done_;
           Lock.release h))
  done;
  Engine.run e;
  Alcotest.(check int) "all readers ran" 3 !done_;
  Alcotest.(check int) "acquisitions" 3 (Lock.acquisitions lock);
  Alcotest.(check int) "no contention" 0 (Lock.contentions lock);
  Alcotest.(check int) "no holders left" 0 (List.length (Lock.holders lock))

let test_exclusive_blocks () =
  let e, lock = fixture () in
  let order = ref [] in
  ignore
    (Engine.spawn e ~name:"first" (fun () ->
         let h = acquire_exn lock Exclusive (Lock.plain_owner "first") in
         order := "first-in" :: !order;
         Engine.delay 5_000;
         order := "first-out" :: !order;
         Lock.release h));
  ignore
    (Engine.spawn e ~name:"second" (fun () ->
         Engine.delay 100;
         let h = acquire_exn lock Exclusive (Lock.plain_owner "second") in
         order := "second-in" :: !order;
         Lock.release h));
  Engine.run e;
  Alcotest.(check (list string))
    "strict mutual exclusion"
    [ "first-in"; "first-out"; "second-in" ]
    (List.rev !order);
  Alcotest.(check int) "one contention" 1 (Lock.contentions lock)

let test_readers_share_writer_waits () =
  let e, lock = fixture () in
  let trace = ref [] in
  let reader k =
    ignore
      (Engine.spawn e (fun () ->
           let h =
             acquire_exn lock Shared (Lock.plain_owner (Printf.sprintf "r%d" k))
           in
           trace := Printf.sprintf "r%d@%d" k (Engine.now e) :: !trace;
           Engine.delay 1_000;
           Lock.release h))
  in
  reader 1;
  reader 2;
  ignore
    (Engine.spawn e (fun () ->
         Engine.delay 10;
         let h = acquire_exn lock Exclusive (Lock.plain_owner "w") in
         trace := Printf.sprintf "w@%d" (Engine.now e) :: !trace;
         Lock.release h));
  Engine.run e;
  match List.rev !trace with
  | [ r1; r2; w ] ->
      Alcotest.(check bool) "readers overlapped" true
        (String.length r1 > 0 && String.length r2 > 0);
      Alcotest.(check bool) "writer after readers" true
        (String.split_on_char '@' w |> List.rev |> List.hd |> int_of_string
        >= 1_000)
  | t -> Alcotest.failf "unexpected trace length %d" (List.length t)

let test_timeout_aborts_holder () =
  (* The heart of §3.2: a waiter's timeout asks the holding transaction to
     abort. We model the holder as an owner with an abort hook that releases
     the lock. *)
  let e, lock = fixture ~tick:100 ~timeout:1_000 () in
  let abort_asked = ref None in
  let held = ref None in
  let hog_owner =
    {
      Lock.name = "hog";
      request_abort =
        Some
          (fun reason ->
            abort_asked := Some reason;
            (match !held with
            | Some h ->
                held := None;
                Lock.release ~during_abort:true h
            | None -> ());
            true);
    }
  in
  ignore
    (Engine.spawn e ~name:"hog" (fun () ->
         match Lock.acquire lock Exclusive hog_owner () with
         | Lock.Granted h -> held := Some h (* never releases voluntarily *)
         | Lock.Gave_up _ -> Alcotest.fail "hog should get the lock"));
  let victim_done = ref (-1) in
  ignore
    (Engine.spawn e ~name:"victim" (fun () ->
         (* start well after the hog's (transaction-priced) acquisition *)
         Engine.delay 5_000;
         let h = acquire_exn lock Exclusive (Lock.plain_owner "victim") in
         victim_done := Engine.now e;
         Lock.release h));
  Engine.run e;
  (match !abort_asked with
  | Some reason ->
      Alcotest.(check bool) "reason names the lock" true
        (String.length reason > 0)
  | None -> Alcotest.fail "holder was never asked to abort");
  Alcotest.(check bool) "victim eventually ran" true (!victim_done > 0);
  Alcotest.(check bool) "at least one timeout fired" true
    (Lock.timeouts_fired lock >= 1);
  Alcotest.(check int) "one holder abort requested" 1
    (Lock.holder_aborts_requested lock)

let test_unabortable_holder_waiter_keeps_waiting () =
  let e, lock = fixture ~tick:100 ~timeout:500 () in
  let got_it = ref false in
  ignore
    (Engine.spawn e ~name:"plain-hog" (fun () ->
         let h = acquire_exn lock Exclusive (Lock.plain_owner "plain-hog") in
         Engine.delay 5_000;
         Lock.release h));
  ignore
    (Engine.spawn e ~name:"waiter" (fun () ->
         Engine.delay 10;
         let h = acquire_exn lock Exclusive (Lock.plain_owner "waiter") in
         got_it := true;
         Lock.release h));
  Engine.run e;
  Alcotest.(check bool) "waiter finally granted" true !got_it;
  Alcotest.(check bool) "timeouts fired but harmless" true
    (Lock.timeouts_fired lock >= 1);
  Alcotest.(check int) "no aborts possible" 0
    (Lock.holder_aborts_requested lock)

let test_fruitless_timeouts_bounded () =
  (* Regression: when *no* holder is abortable and none ever releases, the
     waiter used to re-arm its time-out forever — a livelock that also kept
     the engine's queue non-empty for good. After
     [fruitless_timeout_bound] consecutive fruitless expiries the waiter
     must give up. *)
  let e, lock = fixture ~tick:100 ~timeout:500 () in
  let outcome = ref None in
  ignore
    (Engine.spawn e ~name:"immortal-hog" (fun () ->
         (* Acquires and never releases: a plain (unabortable) owner. *)
         ignore (acquire_exn lock Exclusive (Lock.plain_owner "immortal"))));
  ignore
    (Engine.spawn e ~name:"waiter" (fun () ->
         Engine.delay 10;
         outcome :=
           Some (Lock.acquire lock Exclusive (Lock.plain_owner "waiter") ())));
  Engine.run e;
  (match !outcome with
  | Some (Lock.Gave_up _) -> ()
  | Some (Lock.Granted _) -> Alcotest.fail "granted a lock nobody released"
  | None -> Alcotest.fail "waiter still waiting: livelock not bounded");
  Alcotest.(check int) "give-up counted" 1 (Lock.fruitless_giveups lock);
  Alcotest.(check int) "waiter dequeued" 0 (List.length (Lock.waiters lock));
  Alcotest.(check bool) "tolerated the full bound first" true
    (Lock.timeouts_fired lock >= Lock.fruitless_timeout_bound)

let test_poll_gives_up () =
  let e, lock = fixture ~tick:100 ~timeout:1_000 () in
  ignore
    (Engine.spawn e ~name:"holder" (fun () ->
         let h = acquire_exn lock Exclusive (Lock.plain_owner "holder") in
         Engine.delay 10_000;
         Lock.release h));
  let result = ref None in
  ignore
    (Engine.spawn e ~name:"doomed" (fun () ->
         Engine.delay 10;
         let aborted = ref false in
         let poll () = if !aborted then Some "my txn died" else None in
         let (_ : Engine.cancel) =
           Engine.after e 300 (fun () -> aborted := true)
         in
         result :=
           Some (Lock.acquire lock Exclusive (Lock.plain_owner "doomed") ~poll ())));
  Engine.run e;
  match !result with
  | Some (Lock.Gave_up "my txn died") -> ()
  | Some (Lock.Granted _) -> Alcotest.fail "should have given up"
  | Some (Lock.Gave_up r) -> Alcotest.failf "wrong reason %s" r
  | None -> Alcotest.fail "acquire never returned"

let test_fifo_fair_policy_orders_waiters () =
  let e, lock = fixture ~policy:Lock_policy.fifo_fair () in
  let order = ref [] in
  ignore
    (Engine.spawn e ~name:"holder" (fun () ->
         let h = acquire_exn lock Exclusive (Lock.plain_owner "holder") in
         Engine.delay 1_000;
         Lock.release h));
  for k = 1 to 3 do
    ignore
      (Engine.spawn e (fun () ->
           Engine.delay (10 * k);
           let h =
             acquire_exn lock Exclusive
               (Lock.plain_owner (Printf.sprintf "w%d" k))
           in
           order := k :: !order;
           Engine.delay 100;
           Lock.release h))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "FIFO grant order" [ 1; 2; 3 ]
    (List.rev !order)

let test_reader_priority_vs_fifo () =
  (* Under reader-priority, a late reader overtakes a waiting writer; under
     fifo-fair it must queue behind. This is the Fig 4/5 policy difference
     made observable. *)
  let run_with policy =
    let e, lock = fixture ~policy () in
    let events = ref [] in
    ignore
      (Engine.spawn e ~name:"r1" (fun () ->
           let h = acquire_exn lock Shared (Lock.plain_owner "r1") in
           Engine.delay 1_000;
           Lock.release h));
    ignore
      (Engine.spawn e ~name:"writer" (fun () ->
           Engine.delay 10;
           let h = acquire_exn lock Exclusive (Lock.plain_owner "writer") in
           events := "writer" :: !events;
           Engine.delay 10;
           Lock.release h));
    ignore
      (Engine.spawn e ~name:"r2" (fun () ->
           Engine.delay 20;
           let h = acquire_exn lock Shared (Lock.plain_owner "r2") in
           events := "r2" :: !events;
           Engine.delay 10;
           Lock.release h));
    Engine.run e;
    List.rev !events
  in
  Alcotest.(check (list string))
    "reader priority lets r2 jump the writer" [ "r2"; "writer" ]
    (run_with Lock_policy.reader_priority);
  Alcotest.(check (list string))
    "fifo-fair makes r2 queue" [ "writer"; "r2" ]
    (run_with Lock_policy.fifo_fair)

let test_factored_policy_costs_more () =
  (* Fig 4 vs Fig 5: same decisions, extra indirection cycles. *)
  let elapsed policy =
    let e, lock = fixture ~policy () in
    let t = ref 0 in
    ignore
      (Engine.spawn e (fun () ->
           let before = Engine.now e in
           let h = acquire_exn lock Exclusive (Lock.plain_owner "x") in
           Lock.release h;
           t := Engine.now e - before));
    Engine.run e;
    !t
  in
  let conventional = elapsed Lock_policy.reader_priority in
  let factored = elapsed (Lock_policy.factored Lock_policy.reader_priority) in
  Alcotest.(check int) "two indirections of 35 cycles" 70
    (factored - conventional)

let test_double_release_is_idempotent () =
  let e, lock = fixture () in
  ignore
    (Engine.spawn e (fun () ->
         let h = acquire_exn lock Exclusive (Lock.plain_owner "x") in
         Lock.release h;
         Lock.release h));
  Engine.run e;
  Alcotest.(check (list string)) "no failures" []
    (List.map fst (Engine.failures e));
  Alcotest.(check int) "no holders left" 0 (List.length (Lock.holders lock))

(* Property: the lock manager never grants conflicting modes
   simultaneously, for arbitrary workloads of reader/writer processes. *)
let prop_no_conflicting_grants =
  QCheck2.Test.make ~name:"no conflicting holders ever coexist" ~count:60
    QCheck2.Gen.(
      list_size (int_range 1 12)
        (triple bool (int_range 0 500) (int_range 1 800)))
    (fun jobs ->
      let e, lock = fixture ~tick:64 ~timeout:4_000 () in
      let violated = ref false in
      let readers = ref 0 and writers = ref 0 in
      List.iteri
        (fun k (is_reader, start, hold) ->
          ignore
            (Engine.spawn e (fun () ->
                 Engine.delay start;
                 let mode : Lock_policy.mode =
                   if is_reader then Shared else Exclusive
                 in
                 let h =
                   acquire_exn lock mode
                     (Lock.plain_owner (Printf.sprintf "j%d" k))
                 in
                 (if is_reader then incr readers else incr writers);
                 if !writers > 1 || (!writers = 1 && !readers > 0) then
                   violated := true;
                 Engine.delay hold;
                 (if is_reader then decr readers else decr writers);
                 Lock.release h)))
        jobs;
      Engine.run e;
      (not !violated) && Engine.failures e = [])

let suite =
  [
    ( "lock",
      [
        Alcotest.test_case "uncontended shared locks" `Quick
          test_uncontended_shared;
        Alcotest.test_case "exclusive blocks until release" `Quick
          test_exclusive_blocks;
        Alcotest.test_case "readers share, writer waits" `Quick
          test_readers_share_writer_waits;
        Alcotest.test_case "waiter timeout aborts abortable holder" `Quick
          test_timeout_aborts_holder;
        Alcotest.test_case "unabortable holder: waiter persists" `Quick
          test_unabortable_holder_waiter_keeps_waiting;
        Alcotest.test_case "fruitless time-outs are bounded" `Quick
          test_fruitless_timeouts_bounded;
        Alcotest.test_case "waiter gives up when its txn dies" `Quick
          test_poll_gives_up;
        Alcotest.test_case "fifo-fair grants in arrival order" `Quick
          test_fifo_fair_policy_orders_waiters;
        Alcotest.test_case "reader-priority vs fifo-fair (Fig 4/5)" `Quick
          test_reader_priority_vs_fifo;
        Alcotest.test_case "factored policy charges indirections" `Quick
          test_factored_policy_costs_more;
        Alcotest.test_case "double release is idempotent" `Quick
          test_double_release_is_idempotent;
        QCheck_alcotest.to_alcotest prop_no_conflicting_grants;
      ] );
  ]
