(* Differential tests for the closure-threaded translator.

   {!Vino_vm.Jit} claims bit-identity with {!Vino_vm.Cpu.run} at every
   observable point. These tests check the claim the hard way: a
   fixed-seed corpus of random programs — plus {!Vino_vm.Mutate}-spliced
   and MiSFIT-rewritten variants of each — runs under both modes in
   wrapper-style refuelled slices, and every architectural observable is
   compared after every slice:

   - outcome, pc, cycles, instruction/access counters, the
     sandbox/checkcall cycle attributions, call depth and call stack;
   - all registers and all of memory;
   - the exact (id, cycles, insns, pc) the kernel-call dispatcher saw on
     each [Kcall]/[Kcallr] (counters must be flushed before kernel code
     observes the cpu);
   - how many times the abort flag was polled and how many times the
     [Checkcall] predicate ran, under several poll intervals including
     poll-every-instruction and an abort that fires mid-run.

   Segments compile on first entry, so each (seed, variant) is
   translated once and that one translation runs under every config:
   segments first compiled under one fuel/poll/abort config are
   re-entered under the next. One case runs a single translation from
   four domains at once.

   A final golden test renders Tables 3-7 to JSON under both execution
   modes and requires the bytes to be identical. *)

module Insn = Vino_vm.Insn
module Cpu = Vino_vm.Cpu
module Mem = Vino_vm.Mem
module Jit = Vino_vm.Jit
module Asm = Vino_vm.Asm
module Mutate = Vino_vm.Mutate
module Rewrite = Vino_misfit.Rewrite
module Json = Vino_trace.Json
module Table = Vino_measure.Table

let mem_words = 256
let seg_base = 128
let seg_size = 128

(* ------------------------------------------------------------------ *)
(* Random programs (Asm level, so Mutate can operate on them)          *)
(* ------------------------------------------------------------------ *)

let alu_ops =
  [| Insn.Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr |]

let cond_ops = [| Insn.Eq; Ne; Lt; Le; Gt; Ge |]

(* r0..r13: everything except MiSFIT's scratch register and sp, so the
   rewriter accepts the program. *)
let gen_reg st = Random.State.int st 14

let gen_program st : Asm.item list =
  let nblocks = 2 + Random.State.int st 4 in
  let label k = Printf.sprintf "L%d" k in
  let any_label () = label (Random.State.int st nblocks) in
  let reg () = gen_reg st in
  let item () : Asm.item =
    match Random.State.int st 100 with
    | n when n < 18 -> Li (reg (), Random.State.int st 300 - 50)
    | n when n < 26 -> Mov (reg (), reg ())
    | n when n < 38 ->
        Alu (alu_ops.(Random.State.int st 10), reg (), reg (), reg ())
    | n when n < 48 ->
        Alui
          ( alu_ops.(Random.State.int st 10),
            reg (),
            reg (),
            Random.State.int st 7 - 2 )
    | n when n < 54 -> Ld (reg (), reg (), Random.State.int st 8)
    | n when n < 60 -> St (reg (), reg (), Random.State.int st 8)
    | n when n < 64 -> Sandbox (reg ())
    | n when n < 72 ->
        Br (cond_ops.(Random.State.int st 6), reg (), reg (), any_label ())
    | n when n < 76 -> Jmp (any_label ())
    | n when n < 80 -> Call (any_label ())
    | n when n < 82 -> Ret
    | n when n < 86 -> Kcall_id (Random.State.int st 8)
    | n when n < 88 -> Kcallr (reg ())
    | n when n < 91 -> Checkcall (reg ())
    | n when n < 94 -> Push (reg ())
    | n when n < 96 -> Pop (reg ())
    | _ -> Halt
  in
  List.concat
    (List.init nblocks (fun k ->
         Asm.Label (label k)
         :: List.init (1 + Random.State.int st 6) (fun _ -> item ())))
  @ [ Asm.Halt ]

(* Label-closed fragments for Mutate splicing. *)
let gen_fragment st : Asm.item list =
  match Random.State.int st 3 with
  | 0 ->
      (* bounded countdown loop *)
      [
        Asm.Li (Asm.r9, 3 + Random.State.int st 5);
        Label "f";
        Alui (Insn.Sub, Asm.r9, Asm.r9, 1);
        Br (Insn.Gt, Asm.r9, Asm.r0, "f");
      ]
  | 1 -> [ Asm.St (Asm.r1, Asm.r2, 1); Kcall_id 1 ]
  | _ -> [ Asm.Push Asm.r3; Pop Asm.r3 ]

(* Entry facts mirroring [init_for]'s fixed registers (r1..r4 all point
   into the segment, sp at the top) and the differential environment's
   [call_ok] predicate — so the static verifier can prove some of the
   random accesses safe and the corpus exercises proof-carrying
   translation on real (not hand-picked) programs. *)
let fuzz_verifier =
  Vino_verify.Verify.config
    ~entry:
      [
        (1, Vino_verify.Verify.seg_window ());
        (2, Vino_verify.Verify.seg_window ~off:17 ());
        (3, Vino_verify.Verify.seg_window ~off:(seg_size - 3) ());
        (4, Vino_verify.Verify.seg_window ~off:5 ());
      ]
    ~callable:(fun id -> id land 1 = 0)
    ~words:seg_size ()

(* The variants of one generated program that the corpus compares:
   Mutate-derived source surgery, the MiSFIT-rewritten safe path, and —
   when the static verifier accepts the program — the proof-carrying
   variant, translated with the proof's safe-access map. Most random
   programs are verifier-rejected (a random access is genuinely
   out-of-bounds on some path); [test_corpus] asserts the corpus still
   yields a healthy number of verified variants. *)
let variants st source =
  let frag = gen_fragment st in
  let asm items = (Asm.assemble_exn items).Asm.code in
  let base = asm source in
  let muts =
    [
      ("base", base, None);
      ("prelude", asm (Mutate.splice_prelude ~prelude:frag source), None);
      ("returns", asm (Mutate.before_returns ~payload:frag source), None);
      ( "diverge",
        asm (Mutate.splice_prelude ~prelude:Mutate.diverge source),
        None );
    ]
  in
  let muts =
    match Rewrite.process base with
    | Ok rewritten -> muts @ [ ("rewritten", rewritten, None) ]
    | Error _ -> muts
  in
  match Rewrite.process_proved ~verifier:fuzz_verifier base with
  | Ok (code, Some proof) ->
      muts @ [ ("verified", code, Some (Vino_verify.Proof.safe proof)) ]
  | Ok (_, None) | Error _ -> muts

(* ------------------------------------------------------------------ *)
(* Instrumented environment and differential runner                    *)
(* ------------------------------------------------------------------ *)

type config = {
  cname : string;
  slice : int;  (** fuel granted per slice *)
  max_slices : int;
  poll_every : int;
  abort_after : int option;  (** poll count at which an abort appears *)
}

let configs =
  [
    { cname = "one-slice"; slice = 2000; max_slices = 1; poll_every = 32;
      abort_after = None };
    { cname = "sliced-abort"; slice = 93; max_slices = 40; poll_every = 4;
      abort_after = Some 7 };
    { cname = "poll-per-insn"; slice = 257; max_slices = 8; poll_every = 1;
      abort_after = None };
  ]

(* The kernel-call dispatcher observes the cpu (so translated mode must
   have flushed every counter), charges cycles, writes registers, aborts
   or faults, depending on the id class. *)
let make_env buf =
  let polls = ref 0 and checks = ref 0 and abort_at = ref max_int in
  let kcall id (t : Cpu.t) =
    Buffer.add_string buf
      (Printf.sprintf "kcall id=%d cy=%d in=%d pc=%d\n" id (Cpu.cycles t)
         (Cpu.insns_executed t) t.Cpu.pc);
    match ((id mod 5) + 5) mod 5 with
    | 0 -> Cpu.K_ok
    | 1 ->
        Cpu.charge t 17;
        Cpu.K_ok
    | 2 ->
        Cpu.set_reg t 0 (Cpu.cycles t land 0xFF);
        Cpu.K_ok
    | 3 -> if id = 3 then Cpu.K_abort "kabort" else Cpu.K_ok
    | _ -> Cpu.K_fault (Cpu.Bad_kcall id)
  in
  let call_ok id =
    incr checks;
    Buffer.add_string buf (Printf.sprintf "checkcall id=%d\n" id);
    id land 1 = 0
  in
  let poll () =
    incr polls;
    if !polls >= !abort_at then Some "async-abort" else None
  in
  ({ Cpu.kcall; call_ok; poll }, polls, checks, abort_at)

let pp_snap buf tag outcome (c : Cpu.t) =
  Buffer.add_string buf
    (Format.asprintf
       "%s: %a pc=%d cy=%d in=%d acc=%d sb=%d cc=%d depth=%d stack=[%s] \
        regs=[%s]\n"
       tag Cpu.pp_outcome outcome c.Cpu.pc (Cpu.cycles c)
       (Cpu.insns_executed c) (Cpu.mem_accesses c) (Cpu.sandbox_cycles c)
       (Cpu.checkcall_cycles c)
       c.Cpu.depth
       (String.concat ";" (List.map string_of_int (Cpu.call_stack c)))
       (String.concat ";"
          (Array.to_list (Array.map string_of_int c.Cpu.regs))))

(* Execute [code] under [cfg] in one mode, returning a full rendering of
   everything observable. [step] runs one slice. *)
let run_mode ~init_regs ~init_mem cfg step_of code =
  let buf = Buffer.create 512 in
  let env, polls, checks, abort_at = make_env buf in
  (match cfg.abort_after with Some n -> abort_at := n | None -> ());
  let mem = Mem.create mem_words in
  Mem.blit_in mem 0 init_mem;
  let seg = Mem.segment ~base:seg_base ~size:seg_size in
  let cpu = Cpu.make ~mem ~seg ~fuel:cfg.slice () in
  Array.iteri (fun k v -> Cpu.set_reg cpu k v) init_regs;
  let step = step_of env cpu code in
  let rec slices k =
    let o = step () in
    pp_snap buf (Printf.sprintf "slice%d" k) o cpu;
    match o with
    | Cpu.Out_of_fuel when k < cfg.max_slices ->
        Cpu.refuel cpu cfg.slice;
        slices (k + 1)
    | _ -> ()
  in
  slices 1;
  Buffer.add_string buf
    (Printf.sprintf "polls=%d checks=%d mem=[%s]\n" !polls !checks
       (String.concat ";"
          (Array.to_list
             (Array.map string_of_int (Mem.blit_out mem 0 mem_words)))));
  Buffer.contents buf

let render_interp ~init_regs ~init_mem cfg code =
  run_mode ~init_regs ~init_mem cfg
    (fun env cpu code () -> Cpu.run ~poll_every:cfg.poll_every env cpu code)
    code

let render_trans ~init_regs ~init_mem cfg trans =
  run_mode ~init_regs ~init_mem cfg
    (fun env cpu _ () -> Jit.run ~poll_every:cfg.poll_every env cpu trans)
    (Jit.source trans)

(* One translation per (seed, variant), shared by every config. *)
let differential ~seed ~vname ~init_regs ~init_mem ?safe code =
  let trans = Jit.translate ?safe code in
  List.iter
    (fun cfg ->
      Alcotest.(check string)
        (Printf.sprintf "seed=%d %s %s" seed vname cfg.cname)
        (render_interp ~init_regs ~init_mem cfg code)
        (render_trans ~init_regs ~init_mem cfg trans))
    configs

(* ------------------------------------------------------------------ *)
(* The corpus                                                          *)
(* ------------------------------------------------------------------ *)

(* VINO_JIT_SEEDS widens (or narrows) the fixed-seed corpus: the default
   30 keeps the tier-1 run fast; the nightly workflow sets 100 for a
   deeper sweep. Seeds are always 1..n, so a nightly failure replays
   locally with the same env var. *)
let corpus_size =
  match Sys.getenv_opt "VINO_JIT_SEEDS" with
  | None | Some "" -> 30
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> n
      | _ -> invalid_arg "VINO_JIT_SEEDS must be a positive integer")

let corpus_seeds = List.init corpus_size (fun k -> k + 1)

let init_for st =
  let init_regs =
    Array.init Insn.num_regs (fun k ->
        match k with
        | 1 -> seg_base
        | 2 -> seg_base + 17
        | 3 -> seg_base + seg_size - 3
        | 4 -> seg_base + 5
        | _ when k = Insn.sp -> seg_base + seg_size
        | _ -> Random.State.int st 600 - 100)
  in
  let init_mem =
    Array.init mem_words (fun _ -> Random.State.int st 1000 - 200)
  in
  (init_regs, init_mem)

(* One corpus seed is fully self-contained: the generator state, program,
   variants and initial machine state all derive from the seed, so seeds
   shard across domains (VINO_TEST_DOMAINS=N) with no shared state. A
   failing differential raises out of its domain and Pool.map re-raises
   the lowest-index failure in the runner. *)
(* VINO_JIT_VARIANTS narrows the corpus to a comma-separated set of
   variant names ("all" or unset runs everything) — the CI matrix uses
   it to give the proof-carrying variant its own visible job. *)
let variant_enabled =
  match Sys.getenv_opt "VINO_JIT_VARIANTS" with
  | None | Some "" | Some "all" -> fun _ -> true
  | Some s ->
      let names = String.split_on_char ',' s in
      fun v -> List.mem v names

let corpus_case seed =
  let st = Random.State.make [| 0xD1FF; seed |] in
  let source = gen_program st in
  let vs = variants st source in
  let init_regs, init_mem = init_for st in
  (vs, init_regs, init_mem)

let run_seed seed =
  let vs, init_regs, init_mem = corpus_case seed in
  List.iter
    (fun (vname, code, safe) ->
      if variant_enabled vname then
        differential ~seed ~vname ~init_regs ~init_mem ?safe code)
    vs;
  (* how many variants actually carried a proof (before filtering), so
     the corpus test can assert the proof-carrying path is exercised,
     not silently skipped *)
  List.length
    (List.filter (fun (_, _, safe) -> Option.is_some safe) vs)

(* The fused-xblock mode: cross-block fusion on versus off, both
   translated. Fusion must be invisible to every observable — same
   snapshots, same counters, same memory — it may only change how many
   closures the program compiles to. This pins the widened fusion
   (access groups, mega loop passes, exact-window unrolling) to the
   unfused translation over the whole corpus. *)
let differential_xblock ~seed ~vname ~init_regs ~init_mem ?safe code =
  let fused = Jit.translate ?safe ~xblock:true code in
  let unfused = Jit.translate ?safe ~xblock:false code in
  List.iter
    (fun cfg ->
      let render = render_trans ~init_regs ~init_mem cfg in
      Alcotest.(check string)
        (Printf.sprintf "seed=%d %s %s fused-xblock" seed vname cfg.cname)
        (render fused) (render unfused))
    configs

let run_seed_xblock seed =
  let vs, init_regs, init_mem = corpus_case seed in
  List.iter
    (fun (vname, code, safe) ->
      if variant_enabled vname then
        differential_xblock ~seed ~vname ~init_regs ~init_mem ?safe code)
    vs;
  0

let test_domains =
  match Sys.getenv_opt "VINO_TEST_DOMAINS" with
  | Some s -> ( match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 1)
  | None -> 1

let test_corpus () =
  let proved =
    if test_domains <= 1 then List.map run_seed corpus_seeds
    else
      let pool = Vino_par.Pool.create ~domains:test_domains () in
      Fun.protect
        ~finally:(fun () -> Vino_par.Pool.shutdown pool)
        (fun () -> Vino_par.Pool.map ~pool run_seed corpus_seeds)
  in
  Alcotest.(check bool)
    "corpus exercises the proof-carrying variant" true
    (List.fold_left ( + ) 0 proved > 0)

let test_corpus_xblock () =
  let results =
    if test_domains <= 1 then List.map run_seed_xblock corpus_seeds
    else
      let pool = Vino_par.Pool.create ~domains:test_domains () in
      Fun.protect
        ~finally:(fun () -> Vino_par.Pool.shutdown pool)
        (fun () -> Vino_par.Pool.map ~pool run_seed_xblock corpus_seeds)
  in
  ignore (results : int list)

(* A single translation entered from four domains at once: every
   segment's first entry races, so a domain may run a stub, the closure
   it just compiled, or one another domain stored. Every rendering must
   still equal the interpreter's. The corpus seeds are joined by the
   MiSFIT-rewritten encryption loop, whose exact-window slots random
   programs rarely reach. *)
let crypt_source = Vino_stream.Grafts.xor_encrypt_source ~key:0x5EC2E7

let crypt_case () =
  let code =
    match Rewrite.process (Asm.assemble_exn crypt_source).Asm.code with
    | Ok code -> code
    | Error e -> Alcotest.fail e
  in
  let init_regs =
    Array.init Insn.num_regs (fun k ->
        match k with
        | 1 -> seg_base
        | 2 -> seg_base + (seg_size / 2)
        | 3 -> seg_size / 2
        | _ when k = Insn.sp -> seg_base + seg_size
        | _ -> 0)
  in
  ([ ("rewritten", code, None) ], init_regs, Array.init mem_words Fun.id)

let test_shared_across_domains () =
  let pool = Vino_par.Pool.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Vino_par.Pool.shutdown pool)
    (fun () ->
      List.iter
        (fun (label, (vs, init_regs, init_mem)) ->
          List.iter
            (fun (vname, code, safe) ->
              if variant_enabled vname then begin
                let trans = Jit.translate ?safe code in
                let jobs = List.concat (List.init 4 (fun _ -> configs)) in
                let renders =
                  Vino_par.Pool.map ~pool
                    (fun cfg -> render_trans ~init_regs ~init_mem cfg trans)
                    jobs
                in
                List.iter2
                  (fun cfg got ->
                    Alcotest.(check string)
                      (Printf.sprintf "%s %s %s, one translation on 4 domains"
                         label vname cfg.cname)
                      (render_interp ~init_regs ~init_mem cfg code)
                      got)
                  jobs renders
              end)
            vs)
        (("crypt", crypt_case ())
        :: List.init 8 (fun k ->
               (Printf.sprintf "seed=%d" (k + 1), corpus_case (k + 1)))))

(* ------------------------------------------------------------------ *)
(* Edge cases                                                          *)
(* ------------------------------------------------------------------ *)

let test_empty_program () =
  differential ~seed:0 ~vname:"empty"
    ~init_regs:(Array.make Insn.num_regs 0)
    ~init_mem:(Array.make mem_words 0) [||]

(* Checked mode is the interpreted-extension measurement model;
   {!Jit.run} must fall back to interpretation and agree exactly. *)
let test_checked_fallback () =
  let code =
    [|
      Insn.Li (1, seg_base + 2);
      Ld (2, 1, 0);
      Alui (Insn.Add, 2, 2, 1);
      St (2, 1, 0);
      Halt;
    |]
  in
  let run translated =
    let mem = Mem.create mem_words in
    Mem.store mem (seg_base + 2) 41;
    let seg = Mem.segment ~base:seg_base ~size:seg_size in
    let cpu = Cpu.make ~mem ~seg ~checked:true ~fuel:10_000 () in
    let o =
      if translated then Jit.run Cpu.env_trusted cpu (Jit.translate code)
      else Cpu.run Cpu.env_trusted cpu code
    in
    (o, Cpu.cycles cpu, Mem.load mem (seg_base + 2))
  in
  let oi, ci, mi = run false and ot, ct, mt = run true in
  Alcotest.(check bool) "same outcome" true (oi = ot);
  Alcotest.(check int) "same cycles (incl. check charges)" ci ct;
  Alcotest.(check int) "same memory" mi mt

(* The paper grafts sealed as bench/wall.exe seals them: the MiSFIT safe
   path with imports patched to a stub id, and the encryption graft
   sealed proof-carrying under its entry facts (a 16K-word segment, 2048
   words each side). *)
let wall_seg_words = 1 lsl 14

let crypt_verifier =
  Vino_verify.Verify.config
    ~entry:
      [
        (1, Vino_verify.Verify.seg_window ());
        (2, Vino_verify.Verify.seg_window ~off:2048 ());
        (3, Vino_verify.Verify.arg_at_most 2048);
      ]
    ~words:wall_seg_words ()

let wall_sealed ?verifier source =
  match
    Vino_misfit.Image.seal ?verifier ~key:"test" (Asm.assemble_exn source)
  with
  | Error e -> Alcotest.fail e
  | Ok image ->
      let code = Array.copy image.Vino_misfit.Image.code in
      List.iter
        (fun r -> code.(r.Asm.index) <- Insn.Kcall 1)
        image.Vino_misfit.Image.relocs;
      (code, Option.map Vino_verify.Proof.safe image.Vino_misfit.Image.proof)

let stats t = (Jit.block_count t, Jit.fused_pairs t, Jit.elided_accesses t)

(* Pinned: [vino inspect], [Kernel.translation_stats] and the wall
   columns print these, and they are recounted from the block heads on
   demand, since translation compiles nothing. *)
let test_translation_shape () =
  List.iter
    (fun (name, (code, safe), expect) ->
      let t = Jit.translate ?safe code in
      Alcotest.(check (triple int int int))
        (name ^ ": blocks/fused/bare") expect (stats t);
      Alcotest.(check int) (name ^ ": keeps the source") (Array.length code)
        (Array.length (Jit.source t)))
    [
      ( "readahead",
        wall_sealed
          (Vino_fs.Readahead.app_directed_source ~lock_kcall:"ra.lock"),
        (3, 5, 0) );
      ( "evict",
        wall_sealed (Vino_vmem.Grafts.protect_hot_pages_source ()),
        (10, 15, 0) );
      ( "sched",
        wall_sealed (Vino_sched.Grafts.scan_and_return_self_source ()),
        (6, 7, 0) );
      ("crypt", wall_sealed crypt_source, (3, 22, 0));
      ( "crypt-verified",
        wall_sealed ~verifier:crypt_verifier crypt_source,
        (3, 14, 4) );
    ]

(* Translation builds only static tables and first-entry stubs, and the
   first run compiles only the segments it enters, so translating the
   encryption graft and running it once stays within a small fixed
   allocation budget. Allocation counts are exact, so the bound holds on
   any machine. *)
let test_first_entry_alloc () =
  let code, _ = wall_sealed crypt_source in
  let base = wall_seg_words in
  let mem = Mem.create (2 * wall_seg_words) in
  for k = 0 to 2047 do
    Mem.store mem (base + k) k
  done;
  let cpu = Cpu.make ~mem ~seg:(Mem.segment ~base ~size:wall_seg_words) () in
  Cpu.set_reg cpu 1 base;
  Cpu.set_reg cpu 2 (base + 2048);
  Cpu.set_reg cpu 3 2048;
  let w0 = Gc.minor_words () in
  let t = Jit.translate code in
  let outcome = Jit.run Cpu.env_trusted cpu t in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "halts" true (outcome = Cpu.Halted);
  Alcotest.(check bool)
    (Printf.sprintf "translate + first run: %.0f minor words <= 15600" words)
    true (words <= 15_600.);
  Alcotest.(check (triple int int int))
    "statistics unchanged by running" (3, 22, 0) (stats t)

(* ------------------------------------------------------------------ *)
(* Golden test: Tables 3-7 under both modes                            *)
(* ------------------------------------------------------------------ *)

let with_mode m f =
  let old = !Jit.default_mode in
  Jit.default_mode := m;
  Fun.protect ~finally:(fun () -> Jit.default_mode := old) f

let render_tables () =
  let tables =
    [
      ("table3", Vino_measure.Sc_readahead.table ~iterations:2 ());
      ("table4", Vino_measure.Sc_evict.table ~iterations:2 ());
      ("table5", Vino_measure.Sc_sched.table ~iterations:2 ());
      ("table6", Vino_measure.Sc_crypt.table ~iterations:2 ());
      ("table7", Vino_measure.Abort_model.table7 ~iterations:2 ());
    ]
  in
  String.concat "\n"
    (List.map
       (fun (name, rows) ->
         Json.to_string (Table.to_json ~name ~title:name rows))
       tables)

let test_tables_golden () =
  let interp = with_mode Jit.Interp render_tables in
  let translated = with_mode Jit.Translated render_tables in
  Alcotest.(check string) "tables 3-7 byte-identical" interp translated

(* ------------------------------------------------------------------ *)
(* Translation cache: proof-hash keying, concurrency, digest rendering *)
(* ------------------------------------------------------------------ *)

module Kernel = Vino_core.Kernel
module Proof = Vino_verify.Proof

let cache_code = [| Insn.Li (1, seg_base); Ld (2, 1, 0); Halt |]

(* The same post-link code translated with and without a certificate must
   occupy distinct cache entries (Sign digest alone no longer keys the
   cache), and each entry must be served back on a repeat lookup. *)
let test_cache_proof_key () =
  let k = Kernel.create ~mem_words:(1 lsl 16) () in
  let proof =
    Proof.make ~words:seg_size ~safe:[| false; true; false |] ~calls:[]
  in
  let t0 = Kernel.translate k cache_code in
  let t1 = Kernel.translate k ~proof cache_code in
  Alcotest.(check bool) "distinct translations" true (t0 != t1);
  Alcotest.(check int) "plain translation elides nothing" 0
    (Jit.elided_accesses t0);
  Alcotest.(check int) "proof-carrying elides the proven load" 1
    (Jit.elided_accesses t1);
  let stats = Kernel.translation_stats k in
  Alcotest.(check int) "two cache entries" 2 (List.length stats);
  Alcotest.(check int) "exactly one proof-keyed entry" 1
    (List.length
       (List.filter (fun (key, _, _) -> String.contains key '/') stats));
  Alcotest.(check bool) "same proof hits its entry" true
    (Kernel.translate k ~proof cache_code == t1);
  Alcotest.(check bool) "no proof hits its entry" true
    (Kernel.translate k cache_code == t0)

(* The per-kernel cache under concurrent loads from a domain pool: 128
   translate calls over 8 distinct programs from 4 domains must neither
   crash (the unsynchronised-Hashtbl bug) nor duplicate entries. *)
let test_cache_concurrent () =
  let k = Kernel.create ~mem_words:(1 lsl 16) () in
  let codes = List.init 8 (fun i -> [| Insn.Li (1, i); Insn.Halt |]) in
  let jobs = List.concat (List.init 16 (fun _ -> codes)) in
  let pool = Vino_par.Pool.create ~domains:(max 4 test_domains) () in
  Fun.protect
    ~finally:(fun () -> Vino_par.Pool.shutdown pool)
    (fun () ->
      ignore
        (Vino_par.Pool.map ~pool
           (fun code -> ignore (Kernel.translate k code : Jit.t))
           jobs));
  Alcotest.(check int) "one entry per distinct program" 8
    (List.length (Kernel.translation_stats k))

(* The LRU bound under churn: a capacity-1 cache alternating between two
   programs re-translates on every lookup (4 misses, 3 evictions, never
   a hit), while capacity 2 holds both; shrinking the bound evicts
   immediately, least-recently-used first. The stats listing must stay
   sorted so [vino inspect]-style dumps are CI-diffable. *)
let test_cache_lru_eviction () =
  let a = [| Insn.Li (1, 100); Insn.Halt |] in
  let b = [| Insn.Li (1, 200); Insn.Halt |] in
  let k = Kernel.create ~mem_words:(1 lsl 16) ~jit_cache_cap:1 () in
  List.iter (fun c -> ignore (Kernel.translate k c : Jit.t)) [ a; b; a; b ];
  let s = Kernel.jit_cache_stats k in
  Alcotest.(check int) "alternation misses every time" 4 s.Kernel.jit_misses;
  Alcotest.(check int) "each miss evicts the resident entry" 3
    s.Kernel.jit_evictions;
  Alcotest.(check int) "no hits at capacity 1" 0 s.Kernel.jit_hits;
  Alcotest.(check int) "one live entry" 1 s.Kernel.jit_entries;
  let k2 = Kernel.create ~mem_words:(1 lsl 16) ~jit_cache_cap:2 () in
  let t_a = Kernel.translate k2 a in
  ignore (Kernel.translate k2 b : Jit.t);
  Alcotest.(check bool) "repeat lookup hits at capacity 2" true
    (Kernel.translate k2 a == t_a);
  let s2 = Kernel.jit_cache_stats k2 in
  Alcotest.(check int) "capacity 2: two misses" 2 s2.Kernel.jit_misses;
  Alcotest.(check int) "capacity 2: one hit" 1 s2.Kernel.jit_hits;
  Alcotest.(check int) "capacity 2: no evictions" 0 s2.Kernel.jit_evictions;
  Kernel.set_jit_cache_cap k2 1;
  let s3 = Kernel.jit_cache_stats k2 in
  Alcotest.(check int) "shrink evicts to the new bound" 1
    s3.Kernel.jit_entries;
  Alcotest.(check int) "shrink counts its eviction" 1 s3.Kernel.jit_evictions;
  Alcotest.(check bool) "most recently used survives the shrink" true
    (Kernel.translate k2 a == t_a);
  let k3 = Kernel.create ~mem_words:(1 lsl 16) ~jit_cache_cap:8 () in
  List.iter
    (fun i ->
      ignore (Kernel.translate k3 [| Insn.Li (1, i); Insn.Halt |] : Jit.t))
    [ 5; 3; 9; 1 ];
  let keys =
    List.map (fun (key, _, _) -> key) (Kernel.translation_stats k3)
  in
  Alcotest.(check (list string)) "stats listing sorted for CI diffing"
    (List.sort compare keys) keys

(* [translation_stats] digests must be injective: the old rendering
   masked with [land max_int], aliasing values that differ only in the
   top bit. *)
let test_digest_hex_lossless () =
  let hex n = Kernel.digest_hex (Vino_misfit.Sign.forge n) in
  Alcotest.(check string) "-1 renders as 63-bit unsigned" "7fffffffffffffff"
    (hex (-1));
  Alcotest.(check string) "max_int keeps its distinct rendering"
    "3fffffffffffffff" (hex max_int);
  Alcotest.(check string) "min_int renders its top bit" "4000000000000000"
    (hex min_int);
  Alcotest.(check bool) "no top-bit aliasing" true (hex (-1) <> hex max_int);
  Alcotest.(check bool) "no zero aliasing" true (hex min_int <> hex 0)

let suite =
  [
    ( "jit",
      [
        Alcotest.test_case "differential fuzz corpus" `Quick test_corpus;
        Alcotest.test_case "fused-xblock differential over corpus" `Quick
          test_corpus_xblock;
        Alcotest.test_case "one translation shared by 4 domains" `Quick
          test_shared_across_domains;
        Alcotest.test_case "empty program" `Quick test_empty_program;
        Alcotest.test_case "checked-mode fallback" `Quick
          test_checked_fallback;
        Alcotest.test_case "translation shape" `Quick test_translation_shape;
        Alcotest.test_case "translate + first run allocation" `Quick
          test_first_entry_alloc;
        Alcotest.test_case "tables 3-7 golden across modes" `Quick
          test_tables_golden;
        Alcotest.test_case "cache keyed by digest + proof hash" `Quick
          test_cache_proof_key;
        Alcotest.test_case "cache LRU bound: eviction, shrink, sorted stats"
          `Quick test_cache_lru_eviction;
        Alcotest.test_case "cache safe under a domain pool" `Quick
          test_cache_concurrent;
        Alcotest.test_case "cache digests render losslessly" `Quick
          test_digest_hex_lossless;
      ] );
  ]
