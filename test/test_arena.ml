(* The zero-allocation dispatch PR's txn-side contracts: arena slot
   recycling is physical (the same frame object comes back), frames are
   returned exactly once however the transaction resolved, and the
   handle-batched counters are observationally identical to string
   counters — including across the parallel fan-out. *)

module Engine = Vino_sim.Engine
module Tick = Vino_sim.Tick
module Txn = Vino_txn.Txn
module Arena = Vino_txn.Arena
module Rlimit = Vino_txn.Rlimit
module Counters = Vino_trace.Counters
module Trace = Vino_trace.Trace
module Pool = Vino_par.Pool

let fixture ?(tick = 1000) () =
  let e = Engine.create () in
  let wheel = Tick.create e ~tick () in
  let mgr = Txn.create_mgr e ~wheel () in
  (e, wheel, mgr)

let in_process (e : Engine.t) body =
  ignore (Engine.spawn e ~name:"test-body" body);
  Engine.run e;
  match Engine.failures e with
  | [] -> ()
  | (name, exn) :: _ ->
      Alcotest.failf "process %s crashed: %s" name (Printexc.to_string exn)

(* -------------------------------------------------------------------- *)
(* The generic pool                                                      *)
(* -------------------------------------------------------------------- *)

let test_pool_physical_reuse () =
  let pool : int ref Arena.t = Arena.create ~slots:4 () in
  let a = Arena.take pool ~otherwise:(fun () -> ref 1) in
  Alcotest.(check int) "miss builds fresh" 1 (Arena.outstanding pool);
  Arena.put pool a;
  Alcotest.(check int) "returned" 0 (Arena.outstanding pool);
  Alcotest.(check int) "parked" 1 (Arena.retained pool);
  let b = Arena.take pool ~otherwise:(fun () -> ref 2) in
  Alcotest.(check bool) "same slot object comes back" true (a == b);
  Arena.put pool b

let test_pool_capacity_bound () =
  let pool : int ref Arena.t = Arena.create ~slots:2 () in
  let xs = List.init 5 (fun k -> Arena.take pool ~otherwise:(fun () -> ref k)) in
  List.iter (Arena.put pool) xs;
  Alcotest.(check int) "retains at most capacity" 2 (Arena.retained pool);
  Alcotest.(check int) "outstanding balanced" 0 (Arena.outstanding pool)

let test_slots_for_clamps () =
  let slots w = Arena.slots_for (Rlimit.create ~memory_words:w ()) in
  Alcotest.(check int) "small accounts floor at 16" 16 (slots 0);
  Alcotest.(check int) "scales with memory words" 64 (slots (64 * 256));
  Alcotest.(check int) "huge accounts cap at 1024" 1024 (slots max_int)

(* -------------------------------------------------------------------- *)
(* Frame recycling                                                       *)
(* -------------------------------------------------------------------- *)

let test_frame_physical_reuse () =
  let e, _, mgr = fixture () in
  in_process e (fun () ->
      let t1 = Txn.begin_ mgr ~name:"first" () in
      (match Txn.commit t1 with Ok () -> () | Error r -> Alcotest.fail r);
      Txn.recycle t1;
      Alcotest.(check int) "one frame parked" 1 (Txn.frames_retained mgr);
      let t2 = Txn.begin_ mgr ~name:"second" () in
      Alcotest.(check bool) "same frame object reused" true (t1 == t2);
      Alcotest.(check string) "reinitialized name" "second" (Txn.name t2);
      Alcotest.(check bool) "reinitialized state" true (Txn.is_active t2);
      Alcotest.(check int) "no undo leaks across reuse" 0 (Txn.undo_depth t2);
      match Txn.commit t2 with
      | Ok () -> Txn.recycle t2
      | Error r -> Alcotest.fail r)

let test_nested_abort_exactly_once () =
  let e, _, mgr = fixture () in
  let cell = ref 0 in
  in_process e (fun () ->
      let parent = Txn.begin_ mgr ~name:"parent" () in
      let child = Txn.begin_ mgr ~parent ~name:"child" () in
      Txn.push_undo child ~label:"undo-child" (fun () -> incr cell);
      Txn.abort child ~reason:"disaster";
      Alcotest.(check int) "child undo replayed once" 1 !cell;
      Txn.recycle child;
      Txn.recycle child;
      (* idempotent: the double recycle must not double-park the frame *)
      Alcotest.(check int) "child parked exactly once" 1
        (Txn.frames_retained mgr);
      Alcotest.(check int) "parent still outstanding" 1
        (Txn.frames_outstanding mgr);
      (match Txn.commit parent with
      | Ok () -> ()
      | Error r -> Alcotest.fail r);
      Txn.recycle parent;
      Alcotest.(check int) "all frames returned" 0
        (Txn.frames_outstanding mgr));
  let e2, _, mgr2 = fixture () in
  in_process e2 (fun () ->
      let t = Txn.begin_ mgr2 ~name:"live" () in
      (match Txn.recycle t with
      | () -> Alcotest.fail "recycling an active frame must be refused"
      | exception Invalid_argument _ -> ());
      match Txn.commit t with
      | Ok () -> Txn.recycle t
      | Error r -> Alcotest.fail r)

(* A recycled frame must not leak state from its previous life even
   when that life ended in an abort with pending undo entries. *)
let test_recycle_after_abort_is_clean () =
  let e, _, mgr = fixture () in
  in_process e (fun () ->
      let t = Txn.begin_ mgr ~name:"doomed" () in
      Txn.push_undo t ~label:"u1" (fun () -> ());
      Txn.push_undo t ~label:"u2" (fun () -> ());
      Txn.abort t ~reason:"quota";
      Txn.recycle t;
      let fresh = Txn.begin_ mgr ~name:"clean" () in
      Alcotest.(check bool) "frame reused" true (t == fresh);
      Alcotest.(check int) "no inherited undo entries" 0
        (Txn.undo_depth fresh);
      Alcotest.(check (option string)) "no inherited abort request" None
        (Txn.abort_requested fresh);
      match Txn.commit fresh with
      | Ok () -> Txn.recycle fresh
      | Error r -> Alcotest.fail r)

(* -------------------------------------------------------------------- *)
(* Handle counters                                                       *)
(* -------------------------------------------------------------------- *)

let test_handle_interning () =
  let h1 = Counters.handle "intern.same" in
  let h2 = Counters.handle "intern.same" in
  Alcotest.(check bool) "idempotent" true (h1 = h2);
  Alcotest.(check string) "name round-trips" "intern.same"
    (Counters.handle_name h1);
  let t = Counters.create () in
  Counters.incr_h t h1;
  Counters.add_h t h2 4;
  Alcotest.(check int) "bumps through either handle sum" 5
    (Counters.value t "intern.same");
  Alcotest.check_raises "negative add_h refused"
    (Invalid_argument "Counters.add_h: counters are monotonic") (fun () ->
      Counters.add_h t h1 (-1));
  (* a zero add lists the counter; clear drops it *)
  let zero = Counters.handle "intern.zero" in
  Counters.add_h t zero 0;
  Alcotest.(check (list (pair string int)))
    "zero add listed"
    [ ("intern.same", 5); ("intern.zero", 0) ]
    (Counters.snapshot t);
  Counters.clear t;
  Alcotest.(check (list (pair string int))) "clear drops all" []
    (Counters.snapshot t);
  Alcotest.(check int) "cleared value" 0 (Counters.value t "intern.same");
  Alcotest.(check int) "never interned" 0
    (Counters.value t "intern.never-interned")

(* Handle-batched counters under a traced fan-out: a pool runs traced
   items in the caller's domain, so -j 4 must reproduce the serial
   snapshot exactly. *)
let traced_handle_counters pool =
  let h_work = Counters.handle "arena.work" in
  let h_items = Counters.handle "arena.items" in
  let h_mixed = Counters.handle "arena.mixed" in
  let sink = Trace.create () in
  let out =
    Trace.with_t sink (fun () ->
        Pool.map ?pool
          (fun k ->
            Trace.add_h h_work k;
            Trace.incr_h h_items;
            Trace.incr_h h_mixed;
            k * 3)
          (List.init 25 Fun.id))
  in
  (out, Trace.counters sink)

let test_handles_parallel_identical () =
  let serial_out, serial_ctrs = traced_handle_counters None in
  let pool = Pool.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let par_out, par_ctrs = traced_handle_counters (Some pool) in
      Alcotest.(check (list int)) "same results" serial_out par_out;
      Alcotest.(check (list (pair string int)))
        "same counters at -j 4 vs -j 1" serial_ctrs par_ctrs)

let suite =
  [
    ( "arena",
      [
        Alcotest.test_case "pool hands the same slot object back" `Quick
          test_pool_physical_reuse;
        Alcotest.test_case "pool retention bounded by capacity" `Quick
          test_pool_capacity_bound;
        Alcotest.test_case "slots_for clamps to [16, 1024]" `Quick
          test_slots_for_clamps;
        Alcotest.test_case "txn frame physically reused" `Quick
          test_frame_physical_reuse;
        Alcotest.test_case "nested abort returns frame exactly once" `Quick
          test_nested_abort_exactly_once;
        Alcotest.test_case "recycled abort frame starts clean" `Quick
          test_recycle_after_abort_is_clean;
        Alcotest.test_case "handle interning and mixed bumps" `Quick
          test_handle_interning;
        Alcotest.test_case "handle counters identical across -j" `Quick
          test_handles_parallel_identical;
      ] );
  ]
