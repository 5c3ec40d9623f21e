(* The deterministic domain pool: output must be a pure function of the
   input list, independent of scheduling, and a traced fan-out must leave
   the caller's sink identical to a serial run. The pools here use more
   domains than the machine has cores on purpose — determinism may not
   depend on the schedule. *)

module Pool = Vino_par.Pool
module Trace = Vino_trace.Trace

let with_pool domains f =
  let pool = Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let test_map_order () =
  with_pool 4 (fun pool ->
      let items = List.init 200 (fun k -> k - 50) in
      let f x = (x * x) - (3 * x) in
      Alcotest.(check (list int))
        "map ~pool = List.map" (List.map f items)
        (Pool.map ~pool f items);
      Alcotest.(check (list int))
        "repeat batches reuse the pool" (List.map f items)
        (Pool.map ~pool f items))

let test_map_edges () =
  with_pool 4 (fun pool ->
      Alcotest.(check (list int)) "empty" [] (Pool.map ~pool succ []);
      Alcotest.(check (list int))
        "singleton" [ 8 ]
        (Pool.map ~pool succ [ 7 ]);
      Alcotest.(check (list int))
        "fewer items than domains" [ 1; 2 ]
        (Pool.map ~pool succ [ 0; 1 ]))

exception Boom of int

let test_map_exception () =
  with_pool 4 (fun pool ->
      match
        Pool.map ~pool
          (fun x -> if x mod 10 = 7 then raise (Boom x) else x)
          (List.init 40 Fun.id)
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom x ->
          Alcotest.(check int) "lowest failing index wins" 7 x)

let test_map_not_reentrant () =
  with_pool 4 (fun pool ->
      match Pool.map ~pool (fun x -> Pool.map ~pool succ [ x ]) [ 1; 2 ] with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())

let test_shutdown_degrades () =
  let pool = Pool.create ~domains:4 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.(check (list int))
    "serial after shutdown" [ 2; 3 ]
    (Pool.map ~pool succ [ 1; 2 ])

(* Under an installed sink, map must record exactly what a serial run
   records: the same counters, whatever the pool size. *)
let traced_counters pool =
  let sink = Trace.create () in
  let out =
    Trace.with_t sink (fun () ->
        Pool.map ?pool
          (fun k ->
            Trace.incr ~by:k "par.work";
            Trace.incr "par.items";
            k)
          (List.init 25 Fun.id))
  in
  (out, Trace.counters sink)

let test_traced_map_counters () =
  let serial_out, serial_ctrs = traced_counters None in
  with_pool 4 (fun pool ->
      let par_out, par_ctrs = traced_counters (Some pool) in
      Alcotest.(check (list int)) "same results" serial_out par_out;
      Alcotest.(check (list (pair string int)))
        "same counters" serial_ctrs par_ctrs)

(* Only untraced work fans out: under a sink every item runs in the
   caller's domain with tracing on, so it reports into the caller's sink;
   with no sink, no item sees one, on any domain. Each item spins for a
   millisecond of CPU time, long enough for the workers to wake and
   claim items whenever the batch fans out. *)
let test_traced_items_stay_home () =
  with_pool 4 (fun pool ->
      let home = Domain.self () in
      let items = List.init 40 Fun.id in
      let probe _ =
        let until = Sys.time () +. 0.001 in
        while Sys.time () < until do
          Domain.cpu_relax ()
        done;
        (Domain.self (), Trace.enabled ())
      in
      let traced =
        Trace.with_t (Trace.create ()) (fun () -> Pool.map ~pool probe items)
      in
      Alcotest.(check bool)
        "traced: every item on the caller's domain, traced" true
        (List.for_all (fun (d, on) -> d = home && on) traced);
      let untraced = Pool.map ~pool probe items in
      Alcotest.(check bool)
        "untraced: no item sees a sink" true
        (List.for_all (fun (_, on) -> not on) untraced))

let test_campaign_identical () =
  let serial = Vino_disaster.Campaign.run ~seed:7 ~count:10 () in
  let parallel =
    with_pool 4 (fun pool ->
        Vino_disaster.Campaign.run ~pool ~seed:7 ~count:10 ())
  in
  Alcotest.(check bool)
    "campaign records identical at -j 1 vs -j 4" true
    (serial.Vino_disaster.Campaign.records
    = parallel.Vino_disaster.Campaign.records)

let suite =
  [
    ( "par",
      [
        Alcotest.test_case "map preserves input order" `Quick test_map_order;
        Alcotest.test_case "map edge cases" `Quick test_map_edges;
        Alcotest.test_case "lowest-index exception wins" `Quick
          test_map_exception;
        Alcotest.test_case "nested fan-out rejected" `Quick
          test_map_not_reentrant;
        Alcotest.test_case "shutdown degrades to serial" `Quick
          test_shutdown_degrades;
        Alcotest.test_case "map_scoped absorbs into caller sink" `Quick
          test_traced_map_counters;
        Alcotest.test_case "traced items run on the caller's domain" `Quick
          test_traced_items_stay_home;
        Alcotest.test_case "disaster campaign identical across -j" `Quick
          test_campaign_identical;
      ] );
  ]
