(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§4) from the simulator.

   Usage:
     bench/main.exe                 -- everything (default iterations)
     bench/main.exe -j 4 tables     -- fan table rows out over 4 domains
     bench/main.exe speedup         -- time tables at -j 1 vs -j N
     bench/main.exe quick           -- everything, fewer iterations
     bench/main.exe table3|table4|table5|table6|table7
     bench/main.exe disaster        -- recovery cost by injected fault class
     bench/main.exe abortmodel      -- the §4.5 equation
     bench/main.exe lockfactor      -- Figures 4/5
     bench/main.exe costbenefit     -- §4.1/§4.2/§4.3 cost-benefit analyses
     bench/main.exe ablations       -- design-choice ablations (DESIGN.md) *)

open Vino_measure
module Trace = Vino_trace.Trace

(* --json: besides printing, write each table as BENCH_<name>.json
   (schema vino-bench-v1, see Table.to_json), computing the rows under a
   private trace sink so the emitted counters describe exactly that
   table's run. The sink never changes virtual cycle counts (zero-cost
   guarantee), so numbers match the plain run bit-for-bit. *)
let json_mode = ref false

let emit ~name ~title ?notes rows_fn =
  if !json_mode then begin
    let sink = Trace.create () in
    let rows = Trace.with_t sink rows_fn in
    Table.print ~title ?notes rows;
    let file = Printf.sprintf "BENCH_%s.json" name in
    Table.write_json ~file ~name ~title ~counters:(Trace.counters sink) rows;
    Printf.printf "wrote %s\n%!" file
  end
  else Table.print ~title ?notes (rows_fn ())

let table3 ~iterations ?pool () =
  emit ~name:"table3"
    ~title:"Table 3: Read-ahead graft overhead (Black Box; paper §4.1)"
    ~notes:
      "Note: our MiSFIT delta is smaller than the paper's 3us because the\n\
       IR graft is shorter than their compiled C++; every other component\n\
       matches."
    (fun () -> Sc_readahead.table ~iterations ?pool ())

let table4 ~iterations ?pool () =
  emit ~name:"table4"
    ~title:"Table 4: Page eviction graft overhead (Prioritization; §4.2)"
    ~notes:
      (Printf.sprintf
         "Graft overrules the default victim each run. Agreement case: %.1f \
          us\n\
          (paper: 39+120=159 us elapsed); overrule >> agreement matches."
         (Sc_evict.measure_agreement ~iterations ()))
    (fun () -> Sc_evict.table ~iterations ?pool ())

let table5 ~iterations ?pool () =
  emit ~name:"table5"
    ~title:"Table 5: Scheduling graft overhead (Prioritization; §4.3)"
    ~notes:
      "Largest increase comes from transaction+lock costs, ~2x the process\n\
       switch cost, as in the paper (~2% of a 10 ms timeslice)."
    (fun () -> Sc_sched.table ~iterations ?pool ())

let table6 ~iterations ?pool () =
  emit ~name:"table6"
    ~title:"Table 6: Encryption graft overhead (Stream; SFI worst case; §4.4)"
    ~notes:
      "MiSFIT roughly doubles the graft function: the graft is almost\n\
       entirely loads and stores."
    (fun () -> Sc_crypt.table ~iterations ?pool ())

let table7 ~iterations ?pool () =
  emit ~name:"table7"
    ~title:"Table 7: Graft abort costs (null vs full abort; §4.5)" (fun () ->
      Abort_model.table7 ~iterations ?pool ())

(* [wall:true] appends wall-clock rows comparing forked (snapshot-restored
   warmed sites) and fresh (site rebuilt per trial) campaigns. Only the
   standalone `disaster` dispatch passes it: the rows are host timings, so
   they are incremental (ungated) and must not appear in the `tables` run
   the parallel-determinism CI job byte-diffs. *)
let disaster ?(wall = false) ?pool () =
  emit ~name:"disaster"
    ~title:"Disaster rig: recovery cost by fault class (stream site; seeded)"
    ~notes:
      "Delta over the healthy row is detection + abort + removal. Lock-hog\n\
       and nested-fault rows include the contender whose time-out triggers\n\
       the abort; loop rows are budget-bound (200k cycles)."
    (fun () ->
      let rows = Sc_disaster.table ?pool () in
      if not wall then rows
      else begin
        let time f =
          let t0 = Unix.gettimeofday () in
          ignore (f ());
          Unix.gettimeofday () -. t0
        in
        let count = 400 in
        let campaign ~fork ?pool () =
          Vino_disaster.Campaign.run ?pool ~fork ~seed:42 ~count ()
        in
        (* The two campaigns alternate and each side keeps its best of
           three (the [time_pair] discipline of bench/wall.ml), so the
           forked side's warm-up and a slow host phase cannot land on
           one side only. *)
        let fresh = ref infinity and forked = ref infinity in
        for _ = 1 to 3 do
          let t = time (fun () -> campaign ~fork:false ()) in
          fresh := Float.min !fresh t;
          let t = time (fun () -> campaign ~fork:true ()) in
          forked := Float.min !forked t
        done;
        let fresh = !fresh and forked = !forked in
        let piped = time (fun () -> campaign ~fork:true ?pool ()) in
        rows
        @ [
            Table.overhead
              (Printf.sprintf "wall: fresh campaign, %d trials" count)
              (fresh *. 1e6);
            Table.overhead
              (Printf.sprintf "wall: forked campaign, %d trials" count)
              (forked *. 1e6);
            Table.overhead "wall: forked speedup over fresh (x)"
              (fresh /. forked);
            Table.overhead
              "wall: forked -jN pipeline speedup over fresh -j1 (x)"
              (fresh /. piped);
          ]
      end)

let abortmodel ~iterations ?pool () =
  Table.print
    ~title:"Section 4.5 model: abort cost = 35us + 10us*L + c*G"
    (Abort_model.model_table ~iterations ?pool ());
  let lo, hi = Abort_model.timeout_latency_bounds () in
  Printf.printf
    "Timeout latency with the 10 ms clock tick: %.0f..%.0f ms (paper: 10-20 \
     ms)\n\n"
    (Vino_vm.Costs.us_of_cycles lo /. 1000.)
    (Vino_vm.Costs.us_of_cycles hi /. 1000.)

let lockfactor ~iterations ?pool () =
  Table.print
    ~title:"Figures 4/5: conventional vs fully-factored get_lock"
    ~notes:
      "Two encapsulated decision points cost two ~35-cycle calls per\n\
       acquire; the factored manager lets a graft change the grant order\n\
       (reader-priority vs fifo-fair traces above)."
    (Lock_factor.table ~iterations ?pool ())

let fig3 () =
  print_endline
    {|Figure 3: the measured code paths (general graft structure)

        application request
               |
        [ indirection ]        <- removed on the Base path
               v
     +------------------------+
     |  graft point wrapper   |
     |  txn_begin ----------- |  <- Null path starts charging here
     |     |                  |
     |     v                  |
     |  [ graft function ]    |  <- Unsafe: raw code   Safe: MiSFIT-rewritten
     |     |   \- kcalls -> kernel accessors (undo logged, locks 2PL)
     |     v                  |
     |  results checking      |
     |     |                  |
     |  txn_commit / ABORT -- |  <- Abort path: undo replay + lock release
     +------------------------+
               |
               v
        default code on failure  (graft forcibly removed)
|};
  print_newline ()

(* -------------------------------------------------------------------- *)
(* Cost-benefit analyses (§4.1.1, §4.2.2, §4.3)                          *)
(* -------------------------------------------------------------------- *)

let costbenefit ~iterations () =
  let safe_ra = Sc_readahead.measure ~iterations Path.Safe in
  Printf.printf
    "== Cost-benefit (from the measured simulator paths) ==\n\
     Read-ahead graft (safe path): %.1f us per read. The application wins\n\
     whenever it computes more than that between reads (paper: 107 us; for\n\
     scale, summing a 4 KB block of integers costs ~137 us on the 120 MHz\n\
     target).\n"
    safe_ra;
  let overrule = Sc_evict.measure ~iterations Path.Safe in
  let base = Sc_evict.measure ~iterations Path.Base in
  let fault_us = 16_000. in
  Printf.printf
    "Page-eviction graft: overruling costs %.1f us over the %.1f us default;\n\
     avoiding one %.0f us page fault pays for ~%.0f disagreements (paper: \
     ~57).\n"
    (overrule -. base) base fault_us
    (fault_us /. (overrule -. base));
  let sched_safe = Sc_sched.measure ~iterations Path.Safe in
  Printf.printf
    "Scheduling graft: %.1f us per decision = %.1f%% of a 10 ms timeslice\n\
     (paper: ~2%%).\n\n"
    sched_safe
    (100. *. sched_safe /. 10_000.)

(* -------------------------------------------------------------------- *)
(* Ablations of DESIGN.md's design choices                               *)
(* -------------------------------------------------------------------- *)

let ablation_sfi ~iterations () =
  Printf.printf "== Ablation D1: SFI sandbox cost on the worst-case graft ==\n";
  let null = Sc_crypt.measure ~iterations Path.Null in
  let unsafe = Sc_crypt.measure ~iterations Path.Unsafe in
  let safe = Sc_crypt.measure ~iterations Path.Safe in
  Printf.printf
    "xor-8KB: unsafe %.1f us, safe %.1f us -> SFI adds %.0f%% to the graft\n\
     function (paper: 100-200%% for data-intensive grafts).\n\n"
    unsafe safe
    (100. *. (safe -. unsafe) /. (unsafe -. null))

let ablation_undo ~iterations () =
  Printf.printf "== Ablation D3: undo-stack depth vs abort cost ==\n";
  List.iter
    (fun undo ->
      Printf.printf "  %3d undo records: abort %.1f us\n" undo
        (Abort_model.abort_cost ~iterations ~locks:0 ~undo ()))
    [ 0; 4; 16; 64 ];
  print_newline ()

let ablation_timeout () =
  Printf.printf "== Ablation D4: timeout-tick resolution vs abort latency ==\n";
  List.iter
    (fun (label, tick) ->
      let e = Vino_sim.Engine.create () in
      let wheel = Vino_sim.Tick.create e ~tick () in
      let lat = ref 0 in
      ignore
        (Vino_sim.Engine.spawn e (fun () ->
             Vino_sim.Engine.delay 777;
             lat := Vino_sim.Tick.latency wheel ~after:tick));
      Vino_sim.Engine.run e;
      Printf.printf "  tick %-8s nominal-timeout latency: %8.2f ms\n" label
        (Vino_vm.Costs.us_of_cycles !lat /. 1000.))
    [
      ("10 ms", Vino_sim.Tick.default_tick);
      ("1 ms", Vino_sim.Tick.default_tick / 10);
      ("100 us", Vino_sim.Tick.default_tick / 100);
    ];
  print_newline ()

let ablation_elevator () =
  Printf.printf "== Ablation: disk scheduling (FIFO vs elevator) ==\n";
  List.iter
    (fun (label, scheduling) ->
      let e = Vino_sim.Engine.create () in
      let disk = Vino_fs.Disk.create e ~scheduling () in
      let t0 = ref 0 and t1 = ref 0 in
      ignore
        (Vino_sim.Engine.spawn e (fun () ->
             t0 := Vino_sim.Engine.now e;
             let pending = ref 40 in
             let done_ = Vino_sim.Waitq.create e in
             for k = 1 to 40 do
               Vino_fs.Disk.submit disk Vino_fs.Disk.Read
                 ~block:(k * 6101 mod 200_000)
                 ~on_complete:(fun () ->
                   decr pending;
                   if !pending = 0 then ignore (Vino_sim.Waitq.signal done_))
             done;
             Vino_sim.Waitq.wait done_;
             t1 := Vino_sim.Engine.now e));
      Vino_sim.Engine.run e;
      Printf.printf "  %-9s 40 scattered reads: %8.1f ms\n" label
        (Vino_vm.Costs.us_of_cycles (!t1 - !t0) /. 1000.))
    [ ("FIFO", Vino_fs.Disk.Fifo); ("elevator", Vino_fs.Disk.Elevator) ];
  print_newline ()

let calibrate () =
  Table.print
    ~title:"Per-resource time-out calibration (paper §3.2/§4.5 future work)"
    ~notes:
      "For bitmap-style locks the recommended time-out (~18 us) is far
       below the 10 ms tick: hog recovery is tick-bound at ~10 ms — the
       paper's 'obviously too coarse grain for some resources'."
    (Timeout_calib.table ())

let ablation_extension_technologies () =
  (* A Comparison of OS Extension Technologies (paper §5, ref [16]): run the
     same xor-8KB transform unprotected, MiSFIT-rewritten, and inside a
     bounds-checking interpreted environment. *)
  Printf.printf
    "== Ablation: extension technologies on xor-8KB (paper §5 / [16]) ==\n";
  let words = 2048 in
  let data = Array.init words (fun k -> k) in
  let run ~rewritten ~checked =
    let mem = Vino_vm.Mem.create (8 * 1024) in
    let seg = Vino_vm.Mem.segment ~base:4096 ~size:4096 in
    Array.iteri (fun k v -> Vino_vm.Mem.store mem (4096 + k) v) data;
    let obj =
      Vino_vm.Asm.assemble_exn
        (Vino_stream.Grafts.xor_encrypt_source ~key:0xAB)
    in
    let code =
      if rewritten then
        match Vino_misfit.Rewrite.process obj.Vino_vm.Asm.code with
        | Ok c -> c
        | Error e -> failwith e
      else obj.Vino_vm.Asm.code
    in
    let cpu = Vino_vm.Cpu.make ~mem ~seg ~checked () in
    Vino_vm.Cpu.set_reg cpu 1 4096;
    Vino_vm.Cpu.set_reg cpu 2 (4096 + words);
    Vino_vm.Cpu.set_reg cpu 3 words;
    match Vino_vm.Cpu.run Vino_vm.Cpu.env_trusted cpu code with
    | Vino_vm.Cpu.Halted -> Vino_vm.Costs.us_of_cycles (Vino_vm.Cpu.cycles cpu)
    | o -> failwith (Format.asprintf "%a" Vino_vm.Cpu.pp_outcome o)
  in
  let unprotected = run ~rewritten:false ~checked:false in
  let sfi = run ~rewritten:true ~checked:false in
  let interpreted = run ~rewritten:false ~checked:true in
  Printf.printf
    "  unprotected (trusted)         %8.1f us\n\
    \  MiSFIT SFI                    %8.1f us  (+%.0f%%)\n\
    \  bounds-checking interpreter   %8.1f us  (+%.0f%%)\n\
     SFI beats interpretation, as [16] reports.\n\n"
    unprotected sfi
    (100. *. (sfi -. unprotected) /. unprotected)
    interpreted
    (100. *. (interpreted -. unprotected) /. unprotected)

let ablations ~iterations () =
  ablation_sfi ~iterations ();
  ablation_extension_technologies ();
  ablation_undo ~iterations ();
  ablation_timeout ();
  ablation_elevator ();
  calibrate ()

let all ~iterations ?pool () =
  fig3 ();
  table3 ~iterations ?pool ();
  table4 ~iterations ?pool ();
  table5 ~iterations ?pool ();
  table6 ~iterations ?pool ();
  table7 ~iterations ?pool ();
  disaster ?pool ();
  abortmodel ~iterations ?pool ();
  lockfactor ~iterations ?pool ();
  costbenefit ~iterations ();
  ablations ~iterations ()

let serve ?pool () =
  emit ~name:"serve"
    ~title:
      "Serve: multi-tenant graft server (throughput + latency SLOs, by \
       path and tenant count)"
    ~notes:
      "Arrival-to-response latency of an open-loop multi-tenant workload\n\
       (admission control, inherited per-tenant rlimits, bounded LRU\n\
       translation cache). Throughput lines are informational (req/s, not\n\
       us); percentile and makespan lines are gated."
    (fun () -> Sc_serve.table ?pool ())

(* The tables the bench gate watches: every paper table plus the
   disaster recovery-cost table and the multi-tenant serve table. *)
let tables ~iterations ?pool () =
  table3 ~iterations ?pool ();
  table4 ~iterations ?pool ();
  table5 ~iterations ?pool ();
  table6 ~iterations ?pool ();
  table7 ~iterations ?pool ();
  disaster ?pool ();
  serve ?pool ()

(* Time the gated tables serial vs fanned-out and report the ratio.
   Table output is squelched; only the timing summary survives. *)
let speedup ~jobs () =
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let quiet f () =
    let saved = Unix.dup Unix.stdout in
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    Unix.dup2 null Unix.stdout;
    Unix.close null;
    Fun.protect
      ~finally:(fun () ->
        flush stdout;
        Unix.dup2 saved Unix.stdout;
        Unix.close saved)
      f
  in
  let serial = time (quiet (fun () -> tables ~iterations:60 ())) in
  let pool = Vino_par.Pool.create ~domains:jobs () in
  let parallel =
    Fun.protect
      ~finally:(fun () -> Vino_par.Pool.shutdown pool)
      (fun () -> time (quiet (fun () -> tables ~iterations:60 ~pool ())))
  in
  Printf.printf
    "bench speedup (gated tables, quick iterations):\n\
    \  -j 1   %8.2f s\n\
    \  -j %-2d  %8.2f s\n\
    \  speedup %.2fx on %d available core(s)\n"
    serial jobs parallel (serial /. parallel)
    (Domain.recommended_domain_count ())

let usage () =
  prerr_endline
    "usage: main.exe [--json] [-j N] \
     [quick|tables|table3|table4|table5|table6|table7|disaster|serve|abortmodel|lockfactor|costbenefit|ablations|calibrate|speedup]";
  exit 1

let () =
  let iterations = 300 in
  let args = Array.to_list Sys.argv in
  json_mode := List.mem "--json" args;
  let args = List.filter (fun a -> a <> "--json") args in
  (* -j N: fan tables out over N domains (default: all recommended
     domains; -j 1 is byte-for-byte the serial code path). *)
  let rec split_jobs acc = function
    | "-j" :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 -> (Some j, List.rev_append acc rest)
        | Some _ | None ->
            prerr_endline "main.exe: -j expects a positive integer";
            exit 1)
    | "-j" :: [] ->
        prerr_endline "main.exe: -j expects a positive integer";
        exit 1
    | a :: rest -> split_jobs (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let jobs_opt, args = split_jobs [] args in
  let jobs =
    match jobs_opt with
    | Some j -> j
    | None -> Domain.recommended_domain_count ()
  in
  let with_pool f =
    if jobs <= 1 then f ?pool:None ()
    else
      let pool = Vino_par.Pool.create ~domains:jobs () in
      Fun.protect
        ~finally:(fun () -> Vino_par.Pool.shutdown pool)
        (fun () -> f ?pool:(Some pool) ())
  in
  match args with
  | [ _ ] -> with_pool (all ~iterations)
  | [ _; "quick" ] ->
      (* --json quick only runs the gated tables: the ablations have no
         JSON form and would dominate the run *)
      if !json_mode then with_pool (tables ~iterations:60)
      else with_pool (all ~iterations:60)
  | [ _; "tables" ] -> with_pool (tables ~iterations)
  | [ _; "table3" ] -> with_pool (table3 ~iterations)
  | [ _; "table4" ] -> with_pool (table4 ~iterations)
  | [ _; "table5" ] -> with_pool (table5 ~iterations)
  | [ _; "table6" ] -> with_pool (table6 ~iterations)
  | [ _; "table7" ] -> with_pool (table7 ~iterations)
  | [ _; "disaster" ] -> with_pool (fun ?pool () -> disaster ~wall:true ?pool ())
  | [ _; "serve" ] -> with_pool (fun ?pool () -> serve ?pool ())
  | [ _; "abortmodel" ] -> with_pool (abortmodel ~iterations)
  | [ _; "lockfactor" ] -> with_pool (lockfactor ~iterations)
  | [ _; "costbenefit" ] -> costbenefit ~iterations ()
  | [ _; "ablations" ] -> ablations ~iterations ()
  | [ _; "calibrate" ] -> calibrate ()
  | [ _; "fig3" ] -> fig3 ()
  | [ _; "speedup" ] ->
      (* the reference comparison point is 4 domains unless -j overrides *)
      let jobs =
        match jobs_opt with Some j -> max j 2 | None -> max 4 jobs
      in
      speedup ~jobs ()
  | _ -> usage ()
