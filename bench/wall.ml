(* Host wall-clock harness: interpreter vs. closure-threaded translation.

   Everything else in bench/ measures *virtual* cycles, which are
   bit-identical across execution modes by construction. This harness
   measures the one thing that is allowed to differ — how long the host
   takes to execute a graft — on the four paper grafts, MiSFIT-rewritten
   (the safe path), run to completion under a permissive stub
   environment, and on the disaster rig's runaway graft ([spin: Jmp
   spin]), run until the rig's per-invocation cycle budget is spent.

   The timed loops recycle one cpu per (graft, mode): each invocation is
   [Cpu.reset] + argument registers + [Cpu.refuel] + run, with no
   optional arguments anywhere on the path, so a translated invocation
   performs zero minor-heap allocations (measured and gated below).
   Memory images are initialised once. Before timing, both modes run
   once on a fresh cpu and every architectural observable (outcome,
   cycles, instruction/access counters, registers) is asserted equal,
   and the outcome is asserted to be the row's expected one, so the
   numbers compare the same computation.

   The encryption graft is additionally measured verified
   ("crypt-verified"): sealed under the static verifier with the graft
   point's entry facts, then translated with the bare set the linker's
   analysis proves under the same facts, so every proven access compiles
   to a bare superinstruction. Parity is asserted against the interpreter
   on the same verified-sealed code.

   Windows compile on first entry, so the table also prices what a
   translation-cache miss costs each graft: the linker's load-time
   [Verify.analyse], [Jit.translate] alone, and translate plus the first
   invocation (microseconds, best repetition, and minor words per
   call). These columns are informational; nothing gates them.

   Usage:
     wall.exe [--check]    --check exits 1 unless translation is >= 5x
                           faster than the interpreter on the encryption
                           graft, >= 6x on its verified variant and
                           >= 10x on the runaway spin, and every
                           translated graft allocates 0 minor words per
                           invocation

   Writes BENCH_wall.json (schema vino-bench-v1; table name "wall").
   No golden pins it: host time is machine-dependent, informational
   only. *)

module Insn = Vino_vm.Insn
module Cpu = Vino_vm.Cpu
module Mem = Vino_vm.Mem
module Jit = Vino_vm.Jit
module Asm = Vino_vm.Asm
module Costs = Vino_vm.Costs
module Json = Vino_trace.Json

let mem_words = 1 lsl 15
let seg_base = mem_words / 2
let seg_size = mem_words / 2
let fuel = 1_000_000_000

type workload = {
  name : string;
  source : Asm.item list;
  init : Mem.t -> unit;  (* one-time memory image *)
  setup : Cpu.t -> unit;  (* per-invocation argument registers *)
  fuel : int;  (* per-invocation cycle budget *)
  expect : Cpu.outcome;  (* how every invocation must end *)
}

(* Stub kernel environment: every kernel call succeeds without touching
   the cpu, every indirect-call id probes as callable, no aborts
   pending. Identical for both modes, so it cancels out. *)
let env =
  {
    Cpu.kcall = (fun _ _ -> Cpu.K_ok);
    call_ok = (fun _ -> true);
    poll = (fun () -> None);
  }

let workloads =
  [
    (* one-instruction graft: the whole invocation is entry dispatch, so
       this row is the pure per-invocation overhead of each mode *)
    {
      name = "nop";
      source = [ Asm.Halt ];
      init = ignore;
      setup = ignore;
      fuel;
      expect = Cpu.Halted;
    };
    (* app-directed read-ahead (Table 3): dispatch-dominated *)
    {
      name = "readahead";
      source = Vino_fs.Readahead.app_directed_source ~lock_kcall:"ra.lock";
      init = (fun mem -> Mem.store mem (seg_base + Vino_fs.Readahead.pattern_slot) 17);
      setup = (fun cpu -> Cpu.set_reg cpu 4 seg_base);
      fuel;
      expect = Cpu.Halted;
    };
    (* protect-hot-pages eviction (Table 4): scan-heavy *)
    {
      name = "evict";
      source = Vino_vmem.Grafts.protect_hot_pages_source ();
      init =
        (fun mem ->
          (* shared window at the segment base: 64 protected pages; the
             candidate list right after is all-protected, so every
             invocation walks the full 64x64 is_protected scan *)
          Mem.store mem seg_base 64;
          for k = 1 to 64 do
            Mem.store mem (seg_base + k) k
          done;
          for j = 0 to 63 do
            Mem.store mem (seg_base + 128 + j) (j + 1)
          done);
      setup =
        (fun cpu ->
          Cpu.set_reg cpu 1 1;
          Cpu.set_reg cpu 2 (seg_base + 128);
          Cpu.set_reg cpu 3 64;
          Cpu.set_reg cpu 4 seg_base);
      fuel;
      expect = Cpu.Halted;
    };
    (* scan-process-list delegate (Table 5): call-heavy *)
    {
      name = "sched";
      source = Vino_sched.Grafts.scan_and_return_self_source ();
      init =
        (fun mem ->
          for k = 0 to 127 do
            Mem.store mem (seg_base + k) 0
          done);
      setup =
        (fun cpu ->
          Cpu.set_reg cpu 1 7;
          Cpu.set_reg cpu 2 seg_base;
          Cpu.set_reg cpu 3 128);
      fuel;
      expect = Cpu.Halted;
    };
    (* xor encryption of 2048 words (Table 6): the SFI worst case and
       the acceptance workload for the >= 3x speedup bar *)
    {
      name = "crypt";
      source = Vino_stream.Grafts.xor_encrypt_source ~key:0x5EC2E7;
      init =
        (fun mem ->
          for k = 0 to 2047 do
            Mem.store mem (seg_base + k) k
          done);
      setup =
        (fun cpu ->
          Cpu.set_reg cpu 1 seg_base;
          Cpu.set_reg cpu 2 (seg_base + 2048);
          Cpu.set_reg cpu 3 2048);
      fuel;
      expect = Cpu.Halted;
    };
    (* the disaster rig's runaway graft (Mutate.diverge), spinning until
       its per-invocation budget runs out: the cost the rig pays for
       every infinite-loop, lock-hog and spinning nested-fault trial *)
    {
      name = "spin";
      source = Vino_vm.Mutate.diverge;
      init = ignore;
      setup = ignore;
      fuel = Vino_disaster.Site.graft_budget;
      expect = Cpu.Out_of_fuel;
    };
  ]

(* The verified variant of the encryption graft: the same entry
   facts Sc_crypt's Verified path establishes, scaled to this harness's
   segment. The interval analysis proves every load/store of the
   transform loop in-segment, so the whole per-word load+store pair
   compiles bare. *)
let crypt_verifier =
  Vino_verify.Verify.config
    ~entry:
      [
        (1, Vino_verify.Verify.seg_window ());
        (2, Vino_verify.Verify.seg_window ~off:2048 ());
        (3, Vino_verify.Verify.arg_at_most 2048);
      ]
    ~words:seg_size ()

(* The configuration the linker's load-time check analyses post-link
   code under ([Vino_core.Linker.load]): the installer's entry facts, the
   rewritten stage and the segment size, with every id callable as under
   [env]. *)
let link_verifier ?entry () =
  Vino_verify.Verify.config ?entry ~words:seg_size
    ~callable:(fun _ -> true)
    ~stage:`Rewritten ()

(* Seal through MiSFIT (the safe path) and patch relocations to a stub
   id, exactly as the linker would. *)
let rewritten ?verifier w =
  let obj = Asm.assemble_exn w.source in
  match Vino_misfit.Image.seal ?verifier ~key:"wall-bench" obj with
  | Error e -> failwith (w.name ^ ": MiSFIT rejected: " ^ e)
  | Ok image ->
      let code = Array.copy image.Vino_misfit.Image.code in
      List.iter
        (fun r -> code.(r.Vino_vm.Asm.index) <- Insn.Kcall 1)
        image.Vino_misfit.Image.relocs;
      code

type sample = {
  outcome : Cpu.outcome;
  cycles : int;
  insns : int;
  accesses : int;
  regs : int array;
}

let invoke ~mem ~seg w step =
  let cpu = Cpu.make ~mem ~seg () in
  w.setup cpu;
  Cpu.refuel cpu w.fuel;
  let outcome = step cpu in
  {
    outcome;
    cycles = Cpu.cycles cpu;
    insns = Cpu.insns_executed cpu;
    accesses = Cpu.mem_accesses cpu;
    regs = Array.copy (cpu : Cpu.t).regs;
  }

let assert_parity name ~expect (a : sample) (b : sample) =
  if
    a.outcome <> b.outcome
    || a.cycles <> b.cycles
    || a.insns <> b.insns
    || a.accesses <> b.accesses
    || a.regs <> b.regs
  then begin
    Format.eprintf
      "wall: %s: interpreter and translation disagree\n\
      \  interp: %a cycles=%d insns=%d accesses=%d\n\
      \  trans:  %a cycles=%d insns=%d accesses=%d\n"
      name Cpu.pp_outcome a.outcome a.cycles a.insns a.accesses
      Cpu.pp_outcome b.outcome b.cycles b.insns b.accesses;
    exit 2
  end;
  if a.outcome <> expect then begin
    Format.eprintf "wall: %s: unexpected outcome %a (expected %a)\n" name
      Cpu.pp_outcome a.outcome Cpu.pp_outcome expect;
    exit 2
  end

(* Host timing is noisy (scheduling, frequency scaling), so the two
   modes are timed in alternating repetitions and each reports its best
   (minimum) repetition: the minimum estimates the uncontended cost, and
   alternating keeps a slow machine phase from landing on one mode
   only. *)
let reps = 7

let batch_for run =
  for _ = 1 to 50 do
    run ()
  done;
  let rec go batch =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to batch do
      run ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt < 0.08 then go (batch * 2) else batch
  in
  go 64

let timed batch run =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to batch do
    run ()
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int batch

(* Seconds per invocation for each of two runners, interleaved. *)
let time_pair runa runb =
  let ba = batch_for runa and bb = batch_for runb in
  let besta = ref infinity and bestb = ref infinity in
  for _ = 1 to reps do
    besta := Float.min !besta (timed ba runa);
    bestb := Float.min !bestb (timed bb runb)
  done;
  (!besta, !bestb)

(* Seconds per invocation of one runner, best repetition. *)
let time_one run =
  let batch = batch_for run in
  let best = ref infinity in
  for _ = 1 to reps do
    best := Float.min !best (timed batch run)
  done;
  !best

type measurement = {
  wname : string;
  interp_insns : int;
  trans_insns : int;
  interp_s : float;
  trans_s : float;
  trans_words : float;  (* minor words per translated invocation *)
  (* What a translation cache miss costs: the linker's static check,
     [Jit.translate] alone, then translate plus the first invocation,
     which compiles every window that invocation enters. Seconds and
     minor words per call. *)
  verify_s : float;
  verify_words : float;
  translate_s : float;
  translate_words : float;
  first_s : float;
  first_words : float;
  blocks : int;
  fused : int;
  elided : int;
}

(* Minor-heap words per invocation of [run], in steady state: a couple
   of warmup calls first (the driver-context pool, the cpu's call-stack
   array and counter batches all reach fixed size there), then the
   [Gc.minor_words] delta over a large batch. The cost of reading the
   counter itself (it boxes a float) is measured and subtracted. *)
let alloc_rounds = 10_000

let minor_words_per_invocation run =
  run ();
  run ();
  let p0 = Gc.minor_words () in
  let p1 = Gc.minor_words () in
  let probe = p1 -. p0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to alloc_rounds do
    run ()
  done;
  let w1 = Gc.minor_words () in
  Float.max 0. (w1 -. w0 -. probe) /. float_of_int alloc_rounds

(* Minor-heap words of one call of [run], after two warmup calls. A
   fresh translation allocates the same words every time, so one call
   is exact. *)
let minor_words_per_call run =
  run ();
  run ();
  let p0 = Gc.minor_words () in
  let p1 = Gc.minor_words () in
  let w0 = Gc.minor_words () in
  run ();
  let w1 = Gc.minor_words () in
  Float.max 0. (w1 -. w0 -. (p1 -. p0))

let measure_code ~name ~code ~link ~safe w =
  let trans = Jit.translate ?safe code in
  let mem = Mem.create mem_words in
  let seg = Mem.segment ~base:seg_base ~size:seg_size in
  w.init mem;
  (* parity on the one-shot harness, outside the timed loops *)
  let si = invoke ~mem ~seg w (fun cpu -> Cpu.run env cpu code) in
  let st = invoke ~mem ~seg w (fun cpu -> Jit.run env cpu trans) in
  assert_parity name ~expect:w.expect si st;
  (* Timed invocations recycle one cpu per mode. Nothing on this path
     takes an optional argument ([Some] boxes two words), so the
     translated runner is allocation-free in steady state — asserted by
     the --check gate below. *)
  let icpu = Cpu.make ~mem ~seg () in
  let tcpu = Cpu.make ~mem ~seg () in
  let run_interp () =
    Cpu.reset icpu;
    w.setup icpu;
    Cpu.refuel icpu w.fuel;
    ignore (Cpu.run env icpu code : Cpu.outcome)
  in
  let run_trans () =
    Cpu.reset tcpu;
    w.setup tcpu;
    Cpu.refuel tcpu w.fuel;
    ignore (Jit.run env tcpu trans : Cpu.outcome)
  in
  let interp_s, trans_s = time_pair run_interp run_trans in
  let trans_words = minor_words_per_invocation run_trans in
  (* Cold cost: every call translates afresh, so the first-run runner
     pays each first-entry compile its invocation reaches. *)
  let translate () = ignore (Jit.translate ?safe code : Jit.t) in
  let translate_and_run () =
    let fresh = Jit.translate ?safe code in
    Cpu.reset tcpu;
    w.setup tcpu;
    Cpu.refuel tcpu w.fuel;
    ignore (Jit.run env tcpu fresh : Cpu.outcome)
  in
  let translate_s, first_s = time_pair translate translate_and_run in
  let verify () =
    ignore
      (Vino_verify.Verify.analyse link code : Vino_verify.Report.t)
  in
  let verify_s = time_one verify in
  {
    wname = name;
    interp_insns = si.insns;
    trans_insns = st.insns;
    interp_s;
    trans_s;
    trans_words;
    verify_s;
    verify_words = minor_words_per_call verify;
    translate_s;
    translate_words = minor_words_per_call translate;
    first_s;
    first_words = minor_words_per_call translate_and_run;
    blocks = Jit.block_count trans;
    fused = Jit.fused_pairs trans;
    elided = Jit.elided_accesses trans;
  }

let measure w =
  measure_code ~name:w.name ~code:(rewritten w) ~link:(link_verifier ())
    ~safe:None w

(* Verified measurement: the same graft sealed under the verifier
   (sandboxes already elided at rewrite time) and translated with the
   bare set the linker proves under the same entry facts, so the
   surviving raw accesses compile bare. Parity
   is asserted against the interpreter on the same verified-sealed code;
   the reported speedup, like every row in this table, is against the
   workload's sandboxed safe-path interpreter ([baseline]) — one common
   denominator, so the verified row reads as "what the whole verified
   pipeline buys over interpreting the safe path", the gap the ISSUE
   asks to close. *)
let measure_verified w verifier ~baseline =
  let code = rewritten ~verifier w in
  let link = link_verifier ~entry:verifier.Vino_verify.Verify.entry () in
  match
    Vino_verify.Report.bare_accesses
      (Vino_verify.Verify.analyse link code)
      code
  with
  | None -> failwith (w.name ^ ": the linker proves no raw access")
  | Some _ as safe ->
      let m =
        measure_code ~name:(w.name ^ "-verified") ~code ~link ~safe w
      in
      {
        m with
        interp_s = baseline.interp_s;
        interp_insns = baseline.interp_insns;
      }

let ns s = s *. 1e9
let us s = s *. 1e6

let row_json m =
  let mode_row ?words label secs insns =
    let base =
      [
        ("label", Json.String label);
        (* integer ns/invocation doubles as the "cycles" field the
           vino-bench-v1 schema requires of every row *)
        ("cycles", Json.Int (int_of_float (Float.round (ns secs))));
        ("ns_per_invocation", Json.Float (ns secs));
        ("ns_per_graft_insn", Json.Float (ns secs /. float_of_int insns));
        ("invocations_per_sec", Json.Float (1. /. secs));
        ("graft_insns", Json.Int insns);
        ("incremental", Json.Bool false);
      ]
    in
    let extra =
      match words with
      | None -> []
      | Some w ->
          [
            ("minor_words_per_invocation", Json.Float w);
            ("verify_us", Json.Float (us m.verify_s));
            ("verify_minor_words", Json.Float m.verify_words);
            ("translate_us", Json.Float (us m.translate_s));
            ("translate_minor_words", Json.Float m.translate_words);
            ("first_invocation_us", Json.Float (us m.first_s));
            ("first_invocation_minor_words", Json.Float m.first_words);
          ]
    in
    Json.Obj (base @ extra)
  in
  [
    mode_row (m.wname ^ "/interp") m.interp_s m.interp_insns;
    mode_row ~words:m.trans_words
      (m.wname ^ "/translated")
      m.trans_s m.trans_insns;
  ]

let report ms =
  Printf.printf
    "== Wall-clock: interpreter vs. closure-threaded translation ==\n\
     %-14s %12s %14s %14s %10s %10s %8s %6s %6s %8s %9s %8s %9s %8s \
     %9s\n"
    "graft" "insns/invoc" "interp ns/insn" "trans ns/insn" "speedup"
    "words/inv" "blocks" "fused" "bare" "check us" "check wd" "xlate us"
    "xlate wd" "1st us" "1st wd";
  List.iter
    (fun m ->
      Printf.printf
        "%-14s %12d %14.2f %14.2f %9.2fx %10.3f %8d %6d %6d %8.1f %9.0f \
         %8.1f %9.0f %8.1f %9.0f\n"
        m.wname m.trans_insns
        (ns m.interp_s /. float_of_int m.interp_insns)
        (ns m.trans_s /. float_of_int m.trans_insns)
        (m.interp_s /. m.trans_s)
        m.trans_words m.blocks m.fused m.elided (us m.verify_s)
        m.verify_words (us m.translate_s) m.translate_words (us m.first_s)
        m.first_words)
    ms;
  print_string
    "(check: the linker's Verify.analyse; xlate: Jit.translate alone; \
     1st: translate plus the first invocation, which compiles the \
     windows it enters; per call, ungated)\n";
  let j =
    Json.Obj
      [
        ("schema", Json.String "vino-bench-v1");
        ("name", Json.String "wall");
        ( "title",
          Json.String
            "Host wall-clock: interpreter vs. translated graft execution"
        );
        ("rows", Json.List (List.concat_map row_json ms));
        ( "speedup",
          Json.Obj
            (List.map
               (fun m -> (m.wname, Json.Float (m.interp_s /. m.trans_s)))
               ms) );
      ]
  in
  let file = "BENCH_wall.json" in
  Out_channel.with_open_text file (fun oc ->
      Out_channel.output_string oc (Json.to_string j));
  Printf.printf "wrote %s\n%!" file

let check_bar ms name bar =
  match List.find_opt (fun m -> m.wname = name) ms with
  | Some m when m.interp_s /. m.trans_s >= bar -> ()
  | Some m ->
      Printf.eprintf "wall: %s speedup %.2fx is below the %gx bar\n" name
        (m.interp_s /. m.trans_s)
        bar;
      exit 1
  | None ->
      Printf.eprintf "wall: no %s workload\n" name;
      exit 1

(* The zero-allocation gate: a translated invocation must not touch the
   minor heap. The threshold of half a word absorbs only measurement
   noise from the boxed [Gc.minor_words] reads — one real allocation per
   invocation (a cons cell is three words) fails by 6x. *)
let check_alloc ms =
  List.iter
    (fun m ->
      if m.trans_words >= 0.5 then begin
        Printf.eprintf
          "wall: %s/translated allocates %.3f minor words per invocation \
           (gate: 0)\n"
          m.wname m.trans_words;
        exit 1
      end)
    ms

let () =
  let check = Array.to_list Sys.argv |> List.mem "--check" in
  let ms = List.map measure workloads in
  let ms =
    ms
    @ [
        measure_verified
          (List.find (fun w -> w.name = "crypt") workloads)
          crypt_verifier
          ~baseline:(List.find (fun m -> m.wname = "crypt") ms);
      ]
  in
  report ms;
  if check then begin
    check_bar ms "crypt" 5.0;
    check_bar ms "crypt-verified" 6.0;
    check_bar ms "spin" 10.0;
    check_alloc ms
  end
