(* Shape checks on the reproduced experiments: the orderings and rough
   ratios the paper reports must hold in the simulator, for every table.
   (Exact values are in EXPERIMENTS.md; these tests pin the *shape*.) *)

open Vino_measure

let iterations = 40

let elapsed_of scenario_measure =
  List.map (fun p -> (p, scenario_measure ?iterations:(Some iterations) p)) Path.all

let check_monotone name elapsed =
  (* Base <= Vino <= Null <= Unsafe <= Safe (abort may sit either side of
     safe in the paper; we require it at least above unsafe) *)
  let v p = List.assoc p elapsed in
  Alcotest.(check bool) (name ^ ": base <= vino") true
    (v Path.Base <= v Path.Vino +. 0.01);
  Alcotest.(check bool) (name ^ ": vino < null") true
    (v Path.Vino < v Path.Null);
  Alcotest.(check bool) (name ^ ": null < unsafe") true
    (v Path.Null < v Path.Unsafe);
  Alcotest.(check bool) (name ^ ": unsafe <= safe") true
    (v Path.Unsafe <= v Path.Safe);
  (* the verified path elides a subset of the safe path's checks: it can
     never cost more than safe, nor less than the unrewritten graft *)
  Alcotest.(check bool) (name ^ ": unsafe <= verified") true
    (v Path.Unsafe <= v Path.Verified +. 0.01);
  Alcotest.(check bool) (name ^ ": verified <= safe") true
    (v Path.Verified <= v Path.Safe +. 0.01);
  Alcotest.(check bool) (name ^ ": abort > unsafe") true
    (v Path.Abort > v Path.Unsafe)

let within_factor name ~factor paper measured =
  Alcotest.(check bool)
    (Printf.sprintf "%s: measured %.1f within %gx of paper %.1f" name
       measured factor paper)
    true
    (measured >= paper /. factor && measured <= paper *. factor)

let check_against_paper name paper_elapsed elapsed ~factor =
  List.iter
    (fun (p, paper) ->
      within_factor (name ^ "/" ^ Path.name p) ~factor paper
        (List.assoc p elapsed))
    paper_elapsed

let test_table3_shape () =
  let e = elapsed_of Sc_readahead.measure in
  check_monotone "readahead" e;
  check_against_paper "readahead" Sc_readahead.paper_elapsed e ~factor:1.6;
  (* the txn begin+commit block dominates the null path *)
  let v p = List.assoc p e in
  Alcotest.(check bool) "txn cost ~64us" true
    (let txn = v Path.Null -. v Path.Vino in
     txn > 55. && txn < 95.)

let test_table4_shape () =
  let e = elapsed_of Sc_evict.measure in
  check_monotone "evict" e;
  check_against_paper "evict" Sc_evict.paper_elapsed e ~factor:2.0;
  (* agreement is much cheaper than overrule (paper: 159 vs 316+39) *)
  let agreement = Sc_evict.measure_agreement ~iterations () in
  Alcotest.(check bool) "agreement < overrule" true
    (agreement < List.assoc Path.Safe e);
  Alcotest.(check bool) "agreement in the paper's ballpark" true
    (agreement > 100. && agreement < 260.)

let test_table5_shape () =
  let e = elapsed_of Sc_sched.measure in
  check_monotone "sched" e;
  check_against_paper "sched" Sc_sched.paper_elapsed e ~factor:1.5;
  (* the graft overhead is about twice the process-switch cost and a small
     fraction of a 10 ms timeslice *)
  let v p = List.assoc p e in
  Alcotest.(check bool) "safe ~2-4x base" true
    (v Path.Safe > 2. *. v Path.Base && v Path.Safe < 4. *. v Path.Base);
  Alcotest.(check bool) "~2% of a timeslice" true
    (v Path.Safe /. 10_000. < 0.04)

let test_table6_shape () =
  let e = elapsed_of Sc_crypt.measure in
  check_monotone "crypt" e;
  check_against_paper "crypt" Sc_crypt.paper_elapsed e ~factor:1.4;
  (* SFI near-doubles the graft function: worst case *)
  let v p = List.assoc p e in
  let graft_fn = v Path.Unsafe -. v Path.Null in
  let misfit = v Path.Safe -. v Path.Unsafe in
  Alcotest.(check bool) "misfit overhead 50-200% of graft fn" true
    (misfit > 0.5 *. graft_fn && misfit < 2. *. graft_fn)

let test_table7_shape () =
  let checks =
    [
      ("readahead", Sc_readahead.measure_abort ~iterations);
      ("evict", Sc_evict.measure_abort ~iterations);
      ("sched", Sc_sched.measure_abort ~iterations);
    ]
  in
  List.iter
    (fun (name, f) ->
      let null = f ~full:false () and full = f ~full:true () in
      Alcotest.(check bool) (name ^ ": null abort 30-40us") true
        (null > 30. && null < 42.);
      Alcotest.(check bool) (name ^ ": full abort above null") true
        (full > null);
      Alcotest.(check bool) (name ^ ": full within +40% (paper 0-40%)") true
        (full < 1.45 *. null))
    checks;
  (* encryption holds no locks: its aborts are equal (paper: 36/36) *)
  let cn = Sc_crypt.measure_abort ~iterations ~full:false () in
  let cf = Sc_crypt.measure_abort ~iterations ~full:true () in
  Alcotest.(check (float 2.)) "encryption null=full" cn cf

let test_abort_model () =
  let points = Abort_model.sweep_locks ~iterations () in
  let intercept, slope = Abort_model.fit points in
  Alcotest.(check bool) "intercept ~35us" true
    (intercept > 30. && intercept < 40.);
  Alcotest.(check bool) "slope ~10us/lock" true
    (slope > 8. && slope < 12.);
  (* undo cost raises aborts linearly too *)
  let u0 = Abort_model.abort_cost ~iterations ~locks:0 ~undo:0 () in
  let u16 = Abort_model.abort_cost ~iterations ~locks:0 ~undo:16 () in
  Alcotest.(check (float 2.)) "undo adds its replay cost" (u0 +. 16.) u16

let test_timeout_bounds () =
  let lo, hi = Abort_model.timeout_latency_bounds () in
  Alcotest.(check int) "low = one tick" Vino_sim.Tick.default_tick lo;
  Alcotest.(check int) "high = two ticks" (2 * Vino_sim.Tick.default_tick) hi

let test_lock_factor () =
  let conventional =
    Lock_factor.uncontended_cost ~iterations ~factored:false ()
  in
  let factored = Lock_factor.uncontended_cost ~iterations ~factored:true () in
  Alcotest.(check (float 0.05))
    "difference equals two 35-cycle indirections"
    (Lock_factor.indirection_cost_us ())
    (factored -. conventional);
  Alcotest.(check (list string))
    "reader-priority overtakes"
    [ "reader-1"; "reader-2"; "writer" ]
    (Lock_factor.contended_trace ~policy:Vino_txn.Lock_policy.reader_priority
       ());
  Alcotest.(check (list string))
    "fifo-fair queues"
    [ "reader-1"; "writer"; "reader-2" ]
    (Lock_factor.contended_trace
       ~policy:(Vino_txn.Lock_policy.factored Vino_txn.Lock_policy.fifo_fair)
       ())

let test_stats_match_paper_deviation_discipline () =
  (* the paper reports <2.5% standard deviations for long paths; our
     deterministic simulator should be far tighter on the safe path *)
  let s = Sc_crypt.stats ~iterations Path.Safe in
  let mean = Vino_sim.Stats.trimmed_mean s in
  let sd = Vino_sim.Stats.trimmed_stddev s in
  Alcotest.(check bool) "stddev under 2.5% of mean" true
    (sd < 0.025 *. mean)

let test_table_support () =
  (* each path measures its index in Path.all *)
  let index p =
    float_of_int (Option.get (List.find_index (( = ) p) Path.all))
  in
  Alcotest.(check (list (triple string (option (float 0.)) (float 0.))))
    "graft layout: labelled increments, paper differences, extensions"
    [
      ("Base path", Some 1., 0.);
      ("ind", Some 2., 1.);
      ("VINO path", Some 3., 1.);
      ("Null path", None, 2.);
      ("Unsafe path", None, 3.);
      ("Safe path", Some 4., 4.);
      ("MiSFIT recovered by static verifier", None, 1.);
      ("Verified path", None, 5.);
      ("Kcall-flow check (above Safe)", None, 2.);
      ("FlowChecked path", None, 6.);
      ("abort", Some 6., 3.);
      ("Abort path", Some 10., 7.);
    ]
    (List.map
       (fun (r : Table.row) -> (r.label, r.paper_us, r.measured_us))
       (Table.graft
          ~paper:
            [
              (Path.Base, 1.);
              (Path.Vino, 3.);
              (Path.Safe, 4.);
              (Path.Abort, 10.);
            ]
          ~increments:[ (Path.Vino, "ind"); (Path.Abort, "abort") ]
          index));
  let rendered =
    Format.asprintf "%a" (fun ppf () ->
        Table.render ppf ~title:"T" ~notes:"n"
          [ Table.elapsed ~paper:10. "row" 12.; Table.overhead "inc" 2. ])
      ()
  in
  Alcotest.(check bool) "ratio rendered" true
    (let contains s sub =
       let n = String.length sub in
       let rec go i =
         i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
       in
       go 0
     in
     contains rendered "1.20" && contains rendered "T"
     && contains rendered "n")

let test_probe_timing_exact () =
  let kernel = Vino_core.Kernel.create ~mem_words:(1 lsl 12) () in
  let stats =
    Probe.samples kernel ~warmup:1 ~iterations:50 (fun _ ->
        Vino_sim.Engine.delay (Vino_vm.Costs.cycles_of_us 123.))
  in
  Alcotest.(check (float 0.01)) "mean equals the delay" 123.
    (Vino_sim.Stats.trimmed_mean stats);
  Alcotest.(check (float 0.001)) "deterministic: zero deviation" 0.
    (Vino_sim.Stats.trimmed_stddev stats)

let test_probe_rejects_no_iterations () =
  let kernel = Vino_core.Kernel.create ~mem_words:(1 lsl 12) () in
  Alcotest.check_raises "iterations:0"
    (Invalid_argument "Probe.samples: iterations must be at least 1")
    (fun () -> ignore (Probe.samples kernel ~iterations:0 (fun _ -> ())))

(* Tables 3-7 to the cycle at the quick bench's 60 iterations, as
   [bench/main.exe quick --json] writes them (see [Golden]). *)
let test_tables_golden () =
  let iterations = 60 in
  Golden.check @@ fun check ->
  check "Table 3" (Sc_readahead.table ~iterations ())
    [
      ("Base path", 60);
      ("Indirection cost", 120);
      ("VINO path", 180);
      ("Txn begin+commit+null graft", 7866);
      ("Null path", 8046);
      ("Lock overhead + graft function", 4629);
      ("Unsafe path", 12675);
      ("MiSFIT overhead", 10);
      ("Safe path", 12685);
      ("MiSFIT recovered by static verifier", -10);
      ("Verified path", 12675);
      ("Kcall-flow check (above Safe)", 3);
      ("FlowChecked path", 12688);
      ("Abort cost (above commit)", 1440);
      ("Abort path", 14125);
    ];
  check "Table 4" (Sc_evict.table ~iterations ())
    [
      ("Base path", 4626);
      ("Indirection cost", 120);
      ("VINO path", 4746);
      ("Txn begin+commit+null graft+check", 7926);
      ("Null path", 12672);
      ("Lock + graft function + check", 18085);
      ("Unsafe path", 30757);
      ("MiSFIT overhead", 6365);
      ("Safe path", 37122);
      ("MiSFIT recovered by static verifier", -5);
      ("Verified path", 37117);
      ("Kcall-flow check (above Safe)", 3);
      ("FlowChecked path", 37125);
      ("Abort cost (above commit)", 1440);
      ("Abort path", 38562);
    ];
  Alcotest.(check int) "Table 4 agreement case" 18019
    (Vino_vm.Costs.cycles_of_us (Sc_evict.measure_agreement ~iterations ()));
  check "Table 5" (Sc_sched.table ~iterations ())
    [
      ("Base path", 6480);
      ("Indirection cost", 120);
      ("VINO path", 6600);
      ("Txn begin+commit+null graft", 8166);
      ("Null path", 14766);
      ("Lock + graft function + check", 7823);
      ("Unsafe path", 22589);
      ("MiSFIT overhead", 320);
      ("Safe path", 22909);
      ("MiSFIT recovered by static verifier", 0);
      ("Verified path", 22909);
      ("Kcall-flow check (above Safe)", 3);
      ("FlowChecked path", 22912);
      ("Abort cost (above commit)", 1440);
      ("Abort path", 24349);
    ];
  check "Table 6" (Sc_crypt.table ~iterations ())
    [
      ("Base path", 12288);
      ("VINO path", 12288);
      ("Txn begin+commit (+ cache misses)", 7686);
      ("Null path", 19974);
      ("Graft function", 22531);
      ("Unsafe path", 42505);
      ("MiSFIT overhead", 20480);
      ("Safe path", 62985);
      ("MiSFIT recovered by static verifier", -20480);
      ("Verified path", 42505);
      ("Kcall-flow check (above Safe)", 0);
      ("FlowChecked path", 62985);
      ("Abort cost (above commit)", 840);
      ("Abort path", 63825);
    ];
  check "Table 7" (Abort_model.table7 ~iterations ())
    [
      ("Read-Ahead (null abort)", 4200);
      ("Read-Ahead (full abort)", 5400);
      ("Page Eviction (null abort)", 4200);
      ("Page Eviction (full abort)", 5400);
      ("Scheduling (null abort)", 4200);
      ("Scheduling (full abort)", 5400);
      ("Encryption (null abort)", 4200);
      ("Encryption (full abort)", 4200);
    ]

(* The serve table to the cycle (see [Golden]): makespan and latency
   percentiles of every (tenant count, path) cell, interp and
   verified-translated included, plus each cell's throughput row, which
   is requests per second rather than microseconds but is pinned through
   the same conversion. *)
let test_serve_golden () =
  Golden.check @@ fun check ->
  check "Serve" (Sc_serve.table ())
    [
      ("t=1 interp makespan", 177597);
      ("t=1 interp p50", 13460);
      ("t=1 interp p99", 13460);
      ("t=1 interp p999", 13460);
      ("t=1 interp throughput (req/s)", 1945979);
      ("t=1 translated makespan", 177597);
      ("t=1 translated p50", 13460);
      ("t=1 translated p99", 13460);
      ("t=1 translated p999", 13460);
      ("t=1 translated throughput (req/s)", 1945979);
      ("t=1 verified-translated makespan", 177137);
      ("t=1 verified-translated p50", 13000);
      ("t=1 verified-translated p99", 13000);
      ("t=1 verified-translated p999", 13000);
      ("t=1 verified-translated throughput (req/s)", 1951032);
      ("t=4 interp makespan", 177597);
      ("t=4 interp p50", 13035);
      ("t=4 interp p99", 13460);
      ("t=4 interp p999", 13460);
      ("t=4 interp throughput (req/s)", 7783915);
      ("t=4 translated makespan", 177597);
      ("t=4 translated p50", 13035);
      ("t=4 translated p99", 13460);
      ("t=4 translated p999", 13460);
      ("t=4 translated throughput (req/s)", 7783915);
      ("t=4 verified-translated makespan", 177275);
      ("t=4 verified-translated p50", 12752);
      ("t=4 verified-translated p99", 13000);
      ("t=4 verified-translated p999", 13000);
      ("t=4 verified-translated throughput (req/s)", 7798054);
      ("t=12 interp makespan", 178885);
      ("t=12 interp p50", 13088);
      ("t=12 interp p99", 13652);
      ("t=12 interp p999", 13652);
      ("t=12 interp throughput (req/s)", 23183610);
      ("t=12 translated makespan", 178885);
      ("t=12 translated p50", 13088);
      ("t=12 translated p99", 13652);
      ("t=12 translated p999", 13652);
      ("t=12 translated throughput (req/s)", 23183610);
      ("t=12 verified-translated makespan", 178483);
      ("t=12 verified-translated p50", 12783);
      ("t=12 verified-translated p99", 13112);
      ("t=12 verified-translated p999", 13112);
      ("t=12 verified-translated throughput (req/s)", 23235826);
    ]

let prop_parser_never_crashes =
  QCheck2.Test.make ~name:"parser never raises on garbage" ~count:300
    QCheck2.Gen.(string_size ~gen:printable (int_range 0 120))
    (fun garbage ->
      match Vino_vm.Parse.parse garbage with
      | Ok _ | Error _ -> true)

let suite =
  [
    ( "measure",
      [
        Alcotest.test_case "Table 3 shape (readahead)" `Slow test_table3_shape;
        Alcotest.test_case "Table 4 shape (evict)" `Slow test_table4_shape;
        Alcotest.test_case "Table 5 shape (sched)" `Slow test_table5_shape;
        Alcotest.test_case "Table 6 shape (crypt)" `Slow test_table6_shape;
        Alcotest.test_case "Table 7 shape (aborts)" `Slow test_table7_shape;
        Alcotest.test_case "abort model 35+10L (§4.5)" `Slow test_abort_model;
        Alcotest.test_case "timeout latency bounds 10-20ms" `Quick
          test_timeout_bounds;
        Alcotest.test_case "Fig 4/5 factoring cost and behaviour" `Quick
          test_lock_factor;
        Alcotest.test_case "measurement discipline (<2.5% stddev)" `Slow
          test_stats_match_paper_deviation_discipline;
        Alcotest.test_case "table rendering support" `Quick
          test_table_support;
        Alcotest.test_case "probe timing is exact" `Quick
          test_probe_timing_exact;
        QCheck_alcotest.to_alcotest prop_parser_never_crashes;
        Alcotest.test_case "Tables 3-7: golden cycles" `Quick
          test_tables_golden;
        Alcotest.test_case "serve table: golden cycles" `Quick
          test_serve_golden;
        Alcotest.test_case "probe rejects zero iterations" `Quick
          test_probe_rejects_no_iterations;
      ] );
  ]
