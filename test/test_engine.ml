(* Tests for the discrete-event engine, wait queues and tick timeouts. *)

module Engine = Vino_sim.Engine
module Waitq = Vino_sim.Waitq
module Tick = Vino_sim.Tick
module Pqueue = Vino_sim.Pqueue

let test_pqueue_ordering () =
  let q = Pqueue.create () in
  Pqueue.add q ~key:5 "c";
  Pqueue.add q ~key:1 "a";
  Pqueue.add q ~key:3 "b";
  Pqueue.add q ~key:3 "b2";
  let order = ref [] in
  let rec drain () =
    match Pqueue.pop q with
    | None -> ()
    | Some (_, v) ->
        order := v :: !order;
        drain ()
  in
  drain ();
  Alcotest.(check (list string))
    "time then FIFO order"
    [ "a"; "b"; "b2"; "c" ]
    (List.rev !order)

let prop_pqueue_sorted =
  QCheck2.Test.make ~name:"pqueue pops keys in nondecreasing order" ~count:200
    QCheck2.Gen.(list_size (int_range 0 100) (int_range 0 1000))
    (fun keys ->
      let q = Pqueue.create () in
      List.iter (fun k -> Pqueue.add q ~key:k k) keys;
      let rec drain last =
        match Pqueue.pop q with
        | None -> true
        | Some (k, _) -> k >= last && drain k
      in
      drain min_int)

let test_delay_advances_clock () =
  let e = Engine.create () in
  let seen = ref [] in
  ignore
    (Engine.spawn e ~name:"a" (fun () ->
         Engine.delay 100;
         seen := (Engine.now e, "a") :: !seen));
  ignore
    (Engine.spawn e ~name:"b" (fun () ->
         Engine.delay 50;
         seen := (Engine.now e, "b") :: !seen));
  Engine.run e;
  Alcotest.(check (list (pair int string)))
    "interleaved by virtual time"
    [ (50, "b"); (100, "a") ]
    (List.rev !seen);
  Alcotest.(check int) "final clock" 100 (Engine.now e)

let test_at_and_cancel () =
  let e = Engine.create () in
  let fired = ref [] in
  let _c1 = Engine.at e 10 (fun () -> fired := 1 :: !fired) in
  let c2 = Engine.at e 20 (fun () -> fired := 2 :: !fired) in
  let _c3 = Engine.at e 30 (fun () -> fired := 3 :: !fired) in
  c2 ();
  Engine.run e;
  Alcotest.(check (list int)) "cancelled event skipped" [ 1; 3 ]
    (List.rev !fired)

let test_spawn_failure_recorded () =
  let e = Engine.create () in
  ignore (Engine.spawn e ~name:"crasher" (fun () -> failwith "boom"));
  Engine.run e;
  match Engine.failures e with
  | [ ("crasher", Failure _) ] -> ()
  | _ -> Alcotest.fail "failure not recorded"

let test_kill_blocked_process () =
  let e = Engine.create () in
  let q = Waitq.create e in
  let observed = ref "not run" in
  let p =
    Engine.spawn e ~name:"victim" (fun () ->
        (try Waitq.wait q with Engine.Stopped -> observed := "stopped");
        if !observed = "not run" then observed := "woken")
  in
  ignore
    (Engine.spawn e ~name:"killer" (fun () ->
         Engine.delay 100;
         Engine.kill e p));
  Engine.run e;
  Alcotest.(check string) "stopped exception delivered" "stopped" !observed

let test_waitq_fifo_signal () =
  let e = Engine.create () in
  let q = Waitq.create e in
  let order = ref [] in
  let waiter name =
    ignore
      (Engine.spawn e ~name (fun () ->
           Waitq.wait q;
           order := name :: !order))
  in
  waiter "first";
  waiter "second";
  waiter "third";
  ignore
    (Engine.spawn e ~name:"signaller" (fun () ->
         Engine.delay 10;
         ignore (Waitq.signal q);
         Engine.delay 10;
         ignore (Waitq.signal q);
         Engine.delay 10;
         ignore (Waitq.broadcast q)));
  Engine.run e;
  Alcotest.(check (list string))
    "FIFO wake order"
    [ "first"; "second"; "third" ]
    (List.rev !order)

let test_waitq_timeout () =
  let e = Engine.create () in
  let q = Waitq.create e in
  let outcome = ref None in
  ignore
    (Engine.spawn e (fun () -> outcome := Some (Waitq.wait_timeout q 500)));
  Engine.run e;
  (match !outcome with
  | Some Waitq.Timed_out -> ()
  | _ -> Alcotest.fail "expected timeout");
  Alcotest.(check int) "clock advanced to deadline" 500 (Engine.now e);
  Alcotest.(check int) "waiter removed from queue" 0 (Waitq.length q)

let test_waitq_signal_beats_timeout () =
  let e = Engine.create () in
  let q = Waitq.create e in
  let outcome = ref None in
  ignore
    (Engine.spawn e (fun () -> outcome := Some (Waitq.wait_timeout q 500)));
  ignore
    (Engine.spawn e (fun () ->
         Engine.delay 100;
         ignore (Waitq.signal q)));
  Engine.run e;
  match !outcome with
  | Some Waitq.Signalled -> ()
  | _ -> Alcotest.fail "expected signal to win"

let test_blocked_detection () =
  let e = Engine.create () in
  let q = Waitq.create e in
  ignore (Engine.spawn e ~name:"stuck" (fun () -> Waitq.wait q));
  Engine.run e;
  Alcotest.(check (list string)) "deadlocked process listed" [ "stuck" ]
    (Engine.blocked e)

(* An engine serves one process per request (event points spawn one per
   delivered event), so a long run must not keep every finished process.
   100,000 short requests run in batches of 100; the engine's reachable
   heap stays bounded. Beside them, processes blocked before, during and
   after the requests are still reported by [blocked], oldest first. *)
let test_finished_procs_dropped () =
  let e = Engine.create () in
  let q = Waitq.create e in
  let stuck name = ignore (Engine.spawn e ~name (fun () -> Waitq.wait q)) in
  stuck "stuck-a";
  for batch = 1 to 1_000 do
    for _ = 1 to 100 do
      ignore (Engine.spawn e ~name:"request" (fun () -> Engine.delay 10))
    done;
    if batch = 500 then stuck "stuck-b";
    Engine.run e
  done;
  stuck "stuck-c";
  Engine.run e;
  Alcotest.(check (list string))
    "blocked processes, oldest first"
    [ "stuck-a"; "stuck-b"; "stuck-c" ]
    (Engine.blocked e);
  ignore (Waitq.broadcast q : int);
  Engine.run e;
  let words = Obj.reachable_words (Obj.repr e) in
  Alcotest.(check bool)
    (Printf.sprintf "engine holds %d words <= 10000" words)
    true (words <= 10_000)

let test_run_until () =
  let e = Engine.create () in
  let count = ref 0 in
  ignore
    (Engine.spawn e (fun () ->
         for _ = 1 to 10 do
           Engine.delay 100;
           incr count
         done));
  Engine.run ~until:450 e;
  Alcotest.(check int) "only events before the limit ran" 4 !count;
  Engine.run e;
  Alcotest.(check int) "resume completes the rest" 10 !count

let test_tick_alignment () =
  let e = Engine.create () in
  let w = Tick.create e ~tick:1000 () in
  let fired_at = ref (-1) in
  ignore
    (Engine.spawn e (fun () ->
         Engine.delay 1500;
         (* now = 1500; a 100-cycle timeout must fire at the 2000 boundary *)
         let (_ : Engine.cancel) =
           Tick.arm w ~after:100 (fun () -> fired_at := Engine.now e)
         in
         ()));
  Engine.run e;
  Alcotest.(check int) "fires on next tick boundary" 2000 !fired_at

let test_tick_latency_bounds () =
  (* Paper §4.5: with a 10 ms tick the abort delay is between 10 and 20 ms
     for a 10 ms nominal timeout. *)
  let e = Engine.create () in
  let w = Tick.create e () in
  let tick = Tick.tick w in
  ignore
    (Engine.spawn e (fun () ->
         Engine.delay 777;
         let lat = Tick.latency w ~after:tick in
         Alcotest.(check bool) "latency in [tick, 2*tick)" true
           (lat >= tick && lat < 2 * tick)));
  Engine.run e

(* Property: however timers and processes interleave, callbacks observe a
   nondecreasing clock and every non-cancelled timer fires exactly once. *)
let prop_timer_discipline =
  QCheck2.Test.make ~name:"timers fire once, clock monotone" ~count:150
    QCheck2.Gen.(
      list_size (int_range 0 40) (pair (int_range 0 5_000) bool))
    (fun timers ->
      let e = Engine.create () in
      let fired = Array.make (List.length timers) 0 in
      let last = ref min_int in
      let monotone = ref true in
      let cancels =
        List.mapi
          (fun k (time, keep) ->
            let cancel =
              Engine.at e time (fun () ->
                  fired.(k) <- fired.(k) + 1;
                  if Engine.now e < !last then monotone := false;
                  last := Engine.now e)
            in
            (cancel, keep))
          timers
      in
      List.iter (fun (cancel, keep) -> if not keep then cancel ()) cancels;
      Engine.run e;
      !monotone
      && List.for_all2
           (fun (_, keep) count -> count = if keep then 1 else 0)
           cancels (Array.to_list fired))

let test_stats_trimming () =
  let s = Vino_sim.Stats.create () in
  (* 8 well-behaved samples plus two wild outliers *)
  List.iter (Vino_sim.Stats.add s)
    [ 10.; 10.; 10.; 10.; 10.; 10.; 10.; 10.; 1000.; 0. ];
  Alcotest.(check (float 0.001))
    "trimmed mean drops outliers" 10.
    (Vino_sim.Stats.trimmed_mean s);
  Alcotest.(check bool) "raw mean is polluted" true
    (Vino_sim.Stats.mean s > 50.)

let suite =
  [
    ( "engine",
      [
        Alcotest.test_case "pqueue orders by time then FIFO" `Quick
          test_pqueue_ordering;
        QCheck_alcotest.to_alcotest prop_pqueue_sorted;
        Alcotest.test_case "delay advances virtual clock" `Quick
          test_delay_advances_clock;
        Alcotest.test_case "at/cancel" `Quick test_at_and_cancel;
        Alcotest.test_case "process failures recorded" `Quick
          test_spawn_failure_recorded;
        Alcotest.test_case "kill delivers Stopped to blocked process" `Quick
          test_kill_blocked_process;
        Alcotest.test_case "waitq wakes in FIFO order" `Quick
          test_waitq_fifo_signal;
        Alcotest.test_case "waitq timeout fires and dequeues" `Quick
          test_waitq_timeout;
        Alcotest.test_case "signal beats timeout" `Quick
          test_waitq_signal_beats_timeout;
        Alcotest.test_case "deadlocked processes are reported" `Quick
          test_blocked_detection;
        Alcotest.test_case "run ~until stops and resumes" `Quick
          test_run_until;
        Alcotest.test_case "tick timeouts align to boundaries" `Quick
          test_tick_alignment;
        Alcotest.test_case "tick latency in [T, 2T)" `Quick
          test_tick_latency_bounds;
        QCheck_alcotest.to_alcotest prop_timer_discipline;
        Alcotest.test_case "stats trims 10% outliers" `Quick
          test_stats_trimming;
        Alcotest.test_case "finished processes are dropped" `Quick
          test_finished_procs_dropped;
      ] );
  ]
