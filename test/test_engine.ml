(* Tests for the discrete-event engine, wait queues and tick timeouts. *)

module Engine = Vino_sim.Engine
module Waitq = Vino_sim.Waitq
module Tick = Vino_sim.Tick
module Pqueue = Vino_sim.Pqueue

let test_pqueue_ordering () =
  let q = Pqueue.create () in
  Pqueue.add q ~key:5 ~gen:0 "c";
  Pqueue.add q ~key:1 ~gen:0 "a";
  Pqueue.add q ~key:3 ~gen:0 "b";
  Pqueue.add q ~key:3 ~gen:0 "b2";
  let order = ref [] in
  while not (Pqueue.is_empty q) do
    order := Pqueue.pop q :: !order
  done;
  Alcotest.(check (list string))
    "time then FIFO order"
    [ "a"; "b"; "b2"; "c" ]
    (List.rev !order)

let prop_pqueue_sorted =
  QCheck2.Test.make ~name:"pqueue pops keys in nondecreasing order" ~count:200
    QCheck2.Gen.(list_size (int_range 0 100) (int_range 0 1000))
    (fun keys ->
      let q = Pqueue.create () in
      List.iter (fun k -> Pqueue.add q ~key:k ~gen:0 k) keys;
      let rec drain last =
        Pqueue.is_empty q
        ||
        let k = Pqueue.peek_key q in
        Pqueue.pop q = k && k >= last && drain k
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

(* ------------------------------------------------------------------ *)
(* Allocation bounds                                                   *)
(* ------------------------------------------------------------------ *)

(* One [Engine.delay] measured inside a process, so the pop and the
   resume the engine makes between the two reads count too. *)
let test_delay_words () =
  let e = Engine.create () in
  let words = ref nan in
  ignore
    (Engine.spawn e ~name:"sleeper" (fun () ->
         words := Test_jit.words_of_call (fun () -> Engine.delay 1)));
  Engine.run e;
  Alcotest.(check bool)
    (Printf.sprintf "delay: %.0f minor words <= 12" !words)
    true (!words <= 12.)

(* A spawn, its start event and its exit, on an engine whose queue is
   already grown. *)
let test_spawn_words () =
  let e = Engine.create () in
  let words =
    Test_jit.words_of_call (fun () ->
        ignore (Engine.spawn e ~name:"w" ignore);
        Engine.run e)
  in
  Alcotest.(check bool)
    (Printf.sprintf "spawn + exit: %.0f minor words <= 40" words)
    true (words <= 40.)

(* ------------------------------------------------------------------ *)
(* Wake rules                                                          *)
(* ------------------------------------------------------------------ *)

(* A waker kept from an earlier suspension must not wake a later one. *)
let test_stale_waker () =
  let e = Engine.create () in
  let first = ref ignore and second = ref ignore and log = ref [] in
  ignore
    (Engine.spawn e ~name:"sleeper" (fun () ->
         Engine.suspend (fun w -> first := w);
         log := (Engine.now e, "first") :: !log;
         Engine.suspend (fun w -> second := w);
         log := (Engine.now e, "second") :: !log));
  ignore
    (Engine.spawn e ~name:"waker" (fun () ->
         Engine.delay 10;
         !first ();
         Engine.delay 10;
         !first ()));
  Engine.run e;
  Alcotest.(check (list (pair int string)))
    "only the first suspension woke" [ (10, "first") ] (List.rev !log);
  Alcotest.(check (list string)) "still blocked" [ "sleeper" ]
    (Engine.blocked e);
  !second ();
  !second ();
  Engine.run e;
  Alcotest.(check (list (pair int string)))
    "its own waker wakes the second, once"
    [ (10, "first"); (20, "second") ]
    (List.rev !log);
  Alcotest.(check (list string)) "nothing blocked" [] (Engine.blocked e)

(* A process killed during a delay resumes exactly once: with [Stopped]
   at the kill, not again when the delay would have expired. The expired
   delay's queue entry still moves the clock, as a cancelled timer does. *)
let test_killed_delay_resumes_once () =
  let e = Engine.create () in
  let log = ref [] in
  let note what = log := (Engine.now e, what) :: !log in
  let victim =
    Engine.spawn e ~name:"victim" (fun () ->
        (try
           Engine.delay 100;
           note "woke"
         with Engine.Stopped -> note "stopped");
        try
          Engine.delay 5;
          note "delayed again"
        with Engine.Stopped -> note "stopped again")
  in
  ignore
    (Engine.spawn e ~name:"killer" (fun () ->
         Engine.delay 10;
         Engine.kill e victim;
         Engine.kill e victim));
  Engine.run e;
  Alcotest.(check (list (pair int string)))
    "one resume per suspension"
    [ (10, "stopped"); (10, "stopped again") ]
    (List.rev !log);
  Alcotest.(check bool) "victim dead" false (Engine.alive victim);
  Alcotest.(check int) "clock reached the stale entry" 100 (Engine.now e);
  Alcotest.(check int) "no failures" 0 (List.length (Engine.failures e))

(* [self] is the running process, however the engine interleaves; a
   timer that runs after a process parked or ended is outside any. *)
let test_self () =
  let e = Engine.create () in
  let inside = ref [] and outside = ref [] in
  let note_outside () =
    let raised =
      match Engine.self e with
      | _ -> false
      | exception Invalid_argument _ -> true
    in
    outside := raised :: !outside
  in
  let proc d =
    let me = ref None in
    let check () =
      let ok = match !me with Some p -> Engine.self e == p | None -> false in
      inside := ok :: !inside
    in
    me :=
      Some
        (Engine.spawn e (fun () ->
             check ();
             Engine.delay d;
             check ()))
  in
  proc 10;
  proc 5;
  List.iter
    (fun time ->
      let (_ : Engine.cancel) = Engine.at e time note_outside in
      ())
    [ 0; 5; 7; 10; 20 ];
  note_outside ();
  Engine.run e;
  note_outside ();
  Alcotest.(check (list bool))
    "inside a process" [ true; true; true; true ] !inside;
  Alcotest.(check (list bool))
    "outside any process"
    (List.init 7 (fun _ -> true))
    !outside

(* ------------------------------------------------------------------ *)
(* Random engine programs                                              *)
(* ------------------------------------------------------------------ *)

(* A process script. Each step logs (clock, label) when it completes. *)
type step =
  | Delay of int
  | Wait of int * int (* wait on queue [q] for at most [cycles]; 0: untimed *)
  | Signal of int
  | Kill of int (* kill the top-level process with this index *)
  | Timer of int * bool (* a timer [d] cycles ahead; [true]: cancellable *)
  | Cancel (* cancel the oldest cancellable timer *)
  | Spawn of int (* a child that delays [d] cycles *)

let gen_step rng nprocs =
  let int = Random.State.int rng in
  match int 10 with
  | 0 | 1 | 2 -> Delay (int 40)
  | 3 | 4 -> Wait (int 3, if int 4 = 0 then 0 else 1 + int 60)
  | 5 -> Signal (int 3)
  | 6 -> Kill (int nprocs)
  | 7 -> Timer (int 50, Random.State.bool rng)
  | 8 -> Cancel
  | _ -> Spawn (int 30)

(* Program [seed]: timers scheduled before the run (some cancelled at
   once, some later by a process), processes running random scripts, a
   snapshot before the first step, a [run ~until], a restore (wait
   queues restored too, as a kernel does), a second [run ~until] and a
   drain. Returns the digest of the executed (clock, label) trace. *)
let engine_program seed =
  let rng = Random.State.make [| seed |] in
  let int = Random.State.int rng in
  let nprocs = 3 + int 6 in
  let scripts =
    Array.init nprocs (fun _ ->
        List.init (2 + int 7) (fun _ -> gen_step rng nprocs))
  in
  let timers = List.init (int 12) (fun _ -> (int 120, int 3)) in
  let until1 = int 80 and until2 = int 80 in
  let e = Engine.create () in
  let log = Buffer.create 1024 in
  let note label = Printf.bprintf log "%d %s\n" (Engine.now e) label in
  let qs = Array.init 3 (fun _ -> Waitq.create e) in
  let cancels = Queue.create () in
  let procs = ref [||] in
  let rec exec name = function
    | [] -> ()
    | step :: rest ->
        (match step with
        | Delay d ->
            Engine.delay d;
            note (name ^ " delayed")
        | Wait (q, 0) ->
            Waitq.wait qs.(q);
            note (name ^ " signalled")
        | Wait (q, cycles) -> (
            match Waitq.wait_timeout qs.(q) cycles with
            | Waitq.Signalled -> note (name ^ " signalled")
            | Waitq.Timed_out -> note (name ^ " timed out"))
        | Signal q ->
            note (Printf.sprintf "%s signal %b" name (Waitq.signal qs.(q)))
        | Kill j ->
            Engine.kill e !procs.(j);
            note (Printf.sprintf "%s kill p%d" name j)
        | Timer (d, cancellable) ->
            let label = Printf.sprintf "%s timer +%d" name d in
            let cancel = Engine.after e d (fun () -> note label) in
            if cancellable then Queue.push cancel cancels;
            note (label ^ " set")
        | Cancel ->
            Option.iter (fun cancel -> cancel ()) (Queue.take_opt cancels);
            note (name ^ " cancel")
        | Spawn d ->
            let child = name ^ "/child" in
            ignore
              (Engine.spawn e ~name:child (fun () ->
                   Engine.delay d;
                   note child));
            note (name ^ " spawn"));
        exec name rest
  in
  List.iteri
    (fun k (time, fate) ->
      let label = Printf.sprintf "t%d" k in
      let cancel = Engine.at e time (fun () -> note label) in
      if fate = 0 then cancel ()
      else if fate = 1 then Queue.push cancel cancels)
    timers;
  procs :=
    Array.mapi
      (fun i script ->
        let name = Printf.sprintf "p%d" i in
        Engine.spawn e ~name (fun () ->
            try exec name script
            with Engine.Stopped -> note (name ^ " stopped")))
      scripts;
  let snap = Engine.snapshot e in
  let savers = Array.map (fun q -> Waitq.saver q ()) qs in
  Engine.run ~until:until1 e;
  note "restore";
  Engine.restore e snap;
  Array.iter (fun restore -> restore ()) savers;
  Queue.clear cancels;
  Engine.run ~until:until2 e;
  note "until";
  Engine.run e;
  note ("blocked " ^ String.concat "," (Engine.blocked e));
  Digest.to_hex (Digest.string (Buffer.contents log))

(* Digests recorded before the queue carried a pre-run source and
   process-owned wakes: any change of event order or wake rule moves
   at least one. *)
let engine_program_digests =
  [
    (1, "3e2a755c622da0c157408ed798b1ba30");
    (2, "fe5b002b8efe96353d9e73cd1522ac70");
    (3, "6f6a3d6cdc64c0902bcfd8e739180d11");
    (4, "34e0b95bcf4cc3fc546118106b3841f0");
    (5, "a9dbfb8df176b8b3792e2a49c520ec64");
    (6, "5638dae8a5752d9e4fe1f8b7cea2909b");
    (7, "8523a0c95e4aa6ca9f39c55ea6a20340");
    (8, "553dd7f1fe9cf7085d8418ef47de15a4");
    (9, "13f29ec7cc49eb961a18eab41840d72b");
    (10, "44b7c6f1af5314a264da6f396fff0282");
    (11, "6805a318b8ec60cde49652266303ecd9");
    (12, "21416dbf98e9f521745dd6d7749226d0");
    (13, "d0b3099cfcea91aa9f8ea1e586722d02");
    (14, "c2bdc33e95ae5da4387c1b65b9fb8934");
    (15, "2210de4134b30f22cf246f68bcc1a06a");
    (16, "1c9059574418bd59907d55c5e401dfee");
  ]

let test_engine_programs () =
  List.iter
    (fun (seed, digest) ->
      Alcotest.(check string)
        (Printf.sprintf "program %d" seed)
        digest (engine_program seed))
    engine_program_digests

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
        Alcotest.test_case "delay allocates at most 12 words" `Quick
          test_delay_words;
        Alcotest.test_case "spawn plus exit allocates at most 40 words"
          `Quick test_spawn_words;
        Alcotest.test_case "stale waker never wakes a later suspension"
          `Quick test_stale_waker;
        Alcotest.test_case "killed delayed process resumes once" `Quick
          test_killed_delay_resumes_once;
        Alcotest.test_case "self is the running process" `Quick test_self;
        Alcotest.test_case "random programs keep their traces" `Quick
          test_engine_programs;
      ] );
  ]
