(* The repository's host-time benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 --vino EXE

   Runs one workload as library calls from this process, on one domain:
   a canary run checked against recorded results, one warm-up batch, then
   fixed-size batches for S seconds (and at least [min_batches]), each
   after three timed set-ups and between two calibration loops. Every
   batch's simulated results are checked against a reference. With
   --trace 0 the last line of stdout is a JSON object holding the
   end-to-end metrics; with --trace 1 a separate traced pass splits host
   time into the per-layer ledger and the JSON object holds the
   per-layer metrics. *)

module Ledger = Hostbench.Ledger
module Stats = Vino_sim.Stats
module W = Workloads

let setups_per_batch = 3

(* [Probes.calibration_ns] on the reference host, a shared 2-vCPU x86-64
   VM at 2.0 GHz. Every host time is scaled by this over the calibration
   taken around its batch, which cancels the drift of a shared host's
   speed. *)
let reference_calibration_ns = 6_000_000.

(* enough batches for a tail percentile with ten batches beyond it *)
let min_batches = 11

(* deterministic metrics come from the first batches, whatever the run
   length, so they repeat exactly for a seed *)
let fixed_batches = 5
let traced_batches = 3

(* Traced batches use indices the timed loop never reaches: a campaign
   batch must see seeds its forked sites have not translated yet. *)
let traced_first = 1_000_000

let print_result ~correct ~attempted ~failed metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v)
              unit)
          metrics))

type timed = {
  k : int;
  b : W.batch;
  ns : float;
  words : float;
  cal : float;  (** mean calibration ns just before and after the batch *)
  setup_ns : float;  (** median set-up ns just before the batch *)
}

let take n l = List.filteri (fun i _ -> i < n) l
let sumf f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let sumi f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* The per-layer metrics, in BENCHMARK.json order. Counts are per batch
   of the traced pass. *)
let per_layer =
  [
    ("toolchain.calls", "count");
    ("toolchain.ns_per_call", "ns");
    ("toolchain.share", "ratio");
    ("link.loads", "count");
    ("jit.misses", "count");
    ("jit.hits", "count");
    ("jit.evictions", "count");
    ("jit.hit_ratio", "ratio");
    ("link.ns_per_miss", "ns");
    ("link.words_per_miss", "words");
    ("link.share", "ratio");
    ("sim.events_executed", "count");
    ("sim.procs_spawned", "count");
    ("engine.ns_per_event", "ns");
    ("engine.share", "ratio");
    ("dispatch.calls", "count");
    ("graft.invocations", "count");
    ("audit.admission_rejected", "count");
    ("dispatch.ns_per_call", "ns");
    ("dispatch.share", "ratio");
    ("txn.begins", "count");
    ("txn.commits", "count");
    ("txn.aborts", "count");
    ("lock.acquisitions", "count");
    ("lock.contentions", "count");
    ("lock.timeouts", "count");
    ("txn.ns_per_begin", "ns");
    ("txn.share", "ratio");
    ("vm.insns", "count");
    ("vm.ns_per_insn", "ns");
    ("sfi.sandbox_cycles", "cycles");
    ("vm.share", "ratio");
    ("kcall.calls", "count");
    ("kflow.checks", "count");
    ("kcall.ns_per_call", "ns");
    ("kcall.share", "ratio");
    ("undo.pushes", "count");
    ("undo.replays", "count");
    ("undo.ns_per_replay", "ns");
    ("undo.share", "ratio");
    ("snapshot.restores", "count");
    ("snapshot.ns_per_restore", "ns");
    ("site.create_ns", "ns");
    ("snapshot.share", "ratio");
    ("injector.ns_per_trial", "ns");
    ("invariant.ns_per_trial", "ns");
    ("disaster.share", "ratio");
    ("unattributed.share", "ratio");
    ("trace.overhead", "ratio");
  ]

let layers =
  [
    "toolchain";
    "link";
    "engine";
    "dispatch";
    "txn";
    "vm";
    "kcall";
    "undo";
    "snapshot";
    "disaster";
  ]

let counters =
  [
    "jit.misses";
    "jit.hits";
    "jit.evictions";
    "sim.events_executed";
    "sim.procs_spawned";
    "graft.invocations";
    "audit.admission_rejected";
    "txn.begins";
    "txn.commits";
    "txn.aborts";
    "lock.acquisitions";
    "lock.contentions";
    "lock.timeouts";
    "sfi.sandbox_cycles";
    "kflow.checks";
    "undo.pushes";
    "undo.replays";
  ]

let digest_errors (w : W.t) batches =
  List.concat_map
    (fun (k, (b : W.batch)) ->
      let mismatch =
        match w.reference k with
        | Ok d when String.equal d b.digest -> []
        | Ok d ->
            [ Printf.sprintf "batch %d: digest %s, reference %s" k b.digest d ]
        | Error e -> [ Printf.sprintf "batch %d: no reference: %s" k e ]
      in
      mismatch @ List.map (Printf.sprintf "batch %d: %s" k) b.errors)
    batches

let ledger (w : W.t) ~seed =
  let ks = List.init traced_batches (fun i -> traced_first + i) in
  W.recording := true;
  let t = w.traced ks in
  W.recording := false;
  let nb = float_of_int (List.length ks) in
  let total = int_of_float (sumf (fun p -> p.W.traced_ns) t.batches) in
  let base = int_of_float (sumf (fun p -> p.W.twin_ns) t.batches) in
  let rows = Ledger.split ~traced:total ~untraced:base t.rows in
  let c name = float_of_int (Vino_trace.Trace.counter_value t.sink name) in
  let hits = c "jit.hits" and misses = c "jit.misses" in
  (* shares are of the untraced host time, which the layer rows and the
     unattributed row split between them *)
  let share r = Ledger.share ~total:base r in
  let values =
    List.map (fun name -> (name, c name /. nb)) counters
    @ List.map
        (fun layer ->
          ( layer ^ ".share",
            share { Ledger.layer; ns = Ledger.find rows layer } ))
        (Ledger.unattributed :: layers)
    @ [
        ("link.loads", (hits +. misses) /. nb);
        ( "jit.hit_ratio",
          if hits +. misses > 0. then hits /. (hits +. misses) else 0. );
        ("trace.overhead", float_of_int total /. float_of_int base);
      ]
    @ t.derived
  in
  let value name = Option.value ~default:0. (List.assoc_opt name values) in
  let units = sumi (fun p -> p.W.traced_b.units) t.batches in
  Printf.printf
    "ledger: %s, %d batches, %d %ss, %.0f host ns per %s untraced (%.0f \
     traced)\n"
    w.name (List.length ks) units w.unit_name
    (float_of_int base /. float_of_int units)
    w.unit_name
    (float_of_int total /. float_of_int units);
  List.iter
    (fun r ->
      Printf.printf "  %-13s %14d ns  %7.2f%%  %10.1f ns/%s\n" r.Ledger.layer
        r.ns
        (100. *. share r)
        (float_of_int r.ns /. float_of_int units)
        w.unit_name)
    rows;
  Printf.printf "  %-13s %14d ns  (rows sum to the traced total: %b)\n"
    "total" (Ledger.sum rows)
    (Ledger.sum rows = total);
  Printf.printf "  trace overhead %.3f (traced / untraced host time)\n"
    (float_of_int total /. float_of_int base);
  (match Ledger.largest rows with
  | Some r -> Printf.printf "  largest layer: %s\n" r.Ledger.layer
  | None -> ());
  List.iter (Printf.printf "  %s\n") t.checks;
  List.iter
    (fun (name, n, ns) ->
      Printf.printf "  span %-34s %7d x %12.0f ns\n" name n
        (ns /. float_of_int n))
    (W.span_summary ());
  let dir = ".hostbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Printf.sprintf "%s/spans-%s-%d.json" dir w.name seed in
  W.write_spans path;
  Printf.printf "  spans written to %s\n" path;
  (* the traced batches must reproduce the untraced simulated results *)
  let traced_errors =
    t.mismatches
    @ List.concat_map
      (fun (p : W.pair) ->
        if String.equal p.twin.digest p.traced_b.digest then []
        else
          [
            Printf.sprintf "traced batch %d: digest %s, untraced %s" p.k
              p.traced_b.digest p.twin.digest;
          ])
      t.batches
    @ digest_errors w
        (List.concat_map
           (fun (p : W.pair) -> [ (p.k, p.twin); (p.k, p.traced_b) ])
           t.batches)
  in
  ( traced_errors,
    List.map (fun (name, unit) -> (name, unit, value name)) per_layer )

let run (w : W.t) ~seed ~seconds ~trace =
  (* one untimed set-up first: the fresh process's heap growth is not
     the workload's set-up *)
  w.setup ();
  let canary_errors = w.canary () in
  let warm = w.batch (-1) in
  let deadline = Probes.now_ns () +. (seconds *. 1e9) in
  let top_heap_mb = ref 0. in
  let rec loop k acc =
    if k >= min_batches && Probes.now_ns () >= deadline then List.rev acc
    else begin
      Gc.compact ();
      let cal_before = Probes.calibration_ns () in
      (* set-ups taken between batches sample the same host phases *)
      let setup_ns =
        Ledger.median
          (List.init setups_per_batch (fun _ -> snd (Probes.timed w.setup)))
      in
      let w0 = Gc.minor_words () in
      let b, ns = Probes.timed_clean (fun () -> w.batch k) in
      let words = Gc.minor_words () -. w0 in
      let cal = (cal_before +. Probes.calibration_ns ()) /. 2. in
      (* the peak heap after the fixed batches, before run length can
         change it *)
      if k = fixed_batches - 1 then
        top_heap_mb :=
          float_of_int
            ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
          /. 1e6;
      loop (k + 1) ({ k; b; ns; words; cal; setup_ns } :: acc)
    end
  in
  let batches = loop 0 [] in
  let top_heap_mb = !top_heap_mb in
  let errors =
    canary_errors
    @ digest_errors w ((-1, warm) :: List.map (fun t -> (t.k, t.b)) batches)
  in
  (* host times at the reference host speed *)
  let scaled t ns = ns *. reference_calibration_ns /. t.cal in
  let per_unit =
    List.map (fun t -> scaled t t.ns /. 1e3 /. float_of_int t.b.units) batches
  in
  let raw_per_unit =
    List.map (fun t -> t.ns /. 1e3 /. float_of_int t.b.units) batches
  in
  let setup_s =
    Ledger.median (List.map (fun t -> scaled t t.setup_ns) batches) /. 1e9
  in
  let units = sumi (fun t -> t.b.units) batches in
  let fails = sumi (fun t -> t.b.fails) batches in
  let fixed = take fixed_batches batches in
  let tail_p, tail =
    match Ledger.tail per_unit with Some pv -> pv | None -> (100., nan)
  in
  let virt p =
    Ledger.median (List.map (fun t -> Stats.percentile t.b.virt p) fixed)
  in
  let cals = List.map (fun t -> t.cal) batches in
  Printf.printf "workload %s, seed %d: %d batches of %d %ss in %.2f s\n" w.name
    seed (List.length batches)
    (match batches with t :: _ -> t.b.units | [] -> 0)
    w.unit_name
    (sumf (fun t -> t.ns) batches /. 1e9);
  Printf.printf
    "  calibration loop %.0f ns median (%.0f-%.0f), reference %.0f: host \
     speed %.3f of the reference\n"
    (Ledger.median cals)
    (List.fold_left Float.min infinity cals)
    (List.fold_left Float.max 0. cals)
    reference_calibration_ns
    (reference_calibration_ns /. Ledger.median cals);
  Printf.printf "  unscaled host us per %s: p50 %.3f\n" w.unit_name
    (Ledger.median raw_per_unit);
  Printf.printf "  host_us_per_unit.tail is p%.2f: %d batches, 10 beyond it\n"
    tail_p (List.length batches);
  Printf.printf "  fail_ratio %.6f (%d of %d %ss)\n"
    (float_of_int fails /. float_of_int units)
    fails units w.unit_name;
  Printf.printf "  digest warm-up %s, batch 0 %s\n" warm.digest
    (match batches with t :: _ -> t.b.digest | [] -> "-");
  (match w.paper_us with
  | Some paper ->
      let p50 = virt 50. in
      Printf.printf
        "  virt_us.p50 %.2f us against the paper's %.0f us: %+.1f%% simulated \
         error\n"
        p50 paper
        (100. *. (p50 -. paper) /. paper)
  | None ->
      print_endline "  virt_us unvalidated: the repo holds no paper reference");
  let end_to_end =
    [
      (* units per host second over the batches, slowest and fastest
         tenth dropped *)
      ("throughput", "1/s", 1e6 /. Ledger.trimmed_mean per_unit);
      ("host_us_per_unit.p50", "us", Ledger.median per_unit);
      ("host_us_per_unit.tail", "us", tail);
      ( "minor_words_per_unit",
        "words",
        sumf (fun t -> t.words) fixed
        /. float_of_int (sumi (fun t -> t.b.units) fixed) );
      ("top_heap_mb", "MB", top_heap_mb);
      ("setup_s", "s", setup_s);
      ("ok_ratio", "ratio", 1. -. (float_of_int fails /. float_of_int units));
      ("virt_us.p50", "virt_us", virt 50.);
      ("virt_us.p99", "virt_us", virt 99.);
    ]
  in
  let traced_errors, metrics =
    if trace then ledger w ~seed else ([], end_to_end)
  in
  let errors =
    errors @ traced_errors
    @ List.filter_map
        (fun (name, _, v) ->
          if Float.is_finite v then None
          else Some (Printf.sprintf "metric %s is not a finite number" name))
        metrics
  in
  List.iter (Printf.printf "ERROR %s\n") (take 5 errors);
  if List.length errors > 5 then
    Printf.printf "ERROR ... and %d more\n" (List.length errors - 5);
  print_result ~correct:(errors = []) ~attempted:units ~failed:fails metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and vino = ref "" in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        " one of " ^ String.concat ", " W.names );
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 1: print the per-layer ledger");
      ("--vino", Arg.Set_string vino, " the vino CLI, the serve reference");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let vino = if !vino = "" then None else Some !vino in
  match W.find !workload ~seed:!seed ~vino with
  | None ->
      prerr_endline ("unknown workload " ^ !workload ^ "\n" ^ usage);
      exit 2
  | Some w -> run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
