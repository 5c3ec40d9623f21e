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
     poll-every-instruction, the disaster rig's own slice and poll
     cadence, and aborts that fire mid-run.

   Windows compile on first entry, so each (seed, variant) is
   translated once and that one translation runs under every config:
   windows first compiled under one fuel/poll/abort config are
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

(* Entry facts mirroring [init_for]: r1..r4 all point into the segment,
   sp sits at the top, and every other register starts at an arbitrary
   value ([Top]; the verifier would otherwise assume the zero
   {!Cpu.make} leaves there). With the differential environment's
   [call_ok] predicate, the static verifier can prove some of the random
   accesses safe, so the corpus exercises translation with bare accesses
   on real (not hand-picked) programs. *)
let fuzz_verifier =
  let randomised =
    List.filter
      (fun r -> (r < 1 || r > 4) && r <> Insn.sp)
      (List.init Insn.num_regs Fun.id)
  in
  Vino_verify.Verify.config
    ~entry:
      ([
         (1, Vino_verify.Verify.seg_window ());
         (2, Vino_verify.Verify.seg_window ~off:17 ());
         (3, Vino_verify.Verify.seg_window ~off:(seg_size - 3) ());
         (4, Vino_verify.Verify.seg_window ~off:5 ());
       ]
      @ List.map (fun r -> (r, Vino_verify.Absval.Top)) randomised)
    ~callable:(fun id -> id land 1 = 0)
    ~words:seg_size ()

(* The linker's view of sealed code under the sealer's own facts, as
   {!Vino_core.Linker.load} analyses it (the rewritten stage): the raw
   accesses it proves, which translate bare, and the pcs of raw accesses
   the sealer left that it does not prove. The second must be empty, or
   the linker would refuse an honest image. *)
let linker_view code =
  let report =
    Vino_verify.Verify.analyse
      { fuzz_verifier with Vino_verify.Verify.stage = `Rewritten }
      code
  in
  let bare = Vino_verify.Report.bare_accesses report code in
  let proven pc =
    Vino_verify.Report.ok report
    && match bare with Some b -> b.(pc) | None -> false
  in
  let unproven =
    List.filter
      (fun pc ->
        match code.(pc) with
        | Insn.Ld (_, rb, _) | Insn.St (_, rb, _) ->
            rb <> Insn.scratch && not (proven pc)
        | _ -> false)
      (List.init (Array.length code) Fun.id)
  in
  (bare, unproven)

(* The variants of one generated program that the corpus compares:
   Mutate-derived source surgery, the MiSFIT-rewritten safe path, and —
   when the static verifier accepts the program — the verified variant,
   sealed under [fuzz_verifier] and translated with the bare set the
   linker proves under the same facts. Most random programs are
   verifier-rejected (a random access is genuinely out-of-bounds on some
   path); [test_corpus] asserts the corpus still yields verified
   variants. The second result lists the raw accesses of the verified
   variant the linker does not prove. *)
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
      ( "diverge-returns",
        asm (Mutate.before_returns ~payload:Mutate.diverge source),
        None );
    ]
  in
  let muts =
    match Rewrite.process base with
    | Ok rewritten -> muts @ [ ("rewritten", rewritten, None) ]
    | Error _ -> muts
  in
  match Rewrite.process ~verifier:fuzz_verifier base with
  | Ok code ->
      let bare, unproven = linker_view code in
      (muts @ [ ("verified", code, bare) ], unproven)
  | Error _ -> (muts, [])

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
    (* The disaster rig's cadence for a runaway graft: the wrapper's
       10,000-cycle slices, a poll every 32 instructions. A one-cycle
       [Jmp] spin runs 10,001 instructions per slice, so every slice ends
       on the fuel edge 16 instructions (10,000 mod 32) into a window,
       and the abort appears at the poll halfway through slice 2. *)
    { cname = "wrapper-slice"; slice = Vino_core.Wrapper.default_slice;
      max_slices = 3; poll_every = 32;
      abort_after = Some (3 * Vino_core.Wrapper.default_slice / 2 / 32) };
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

(* Differential runs return only the renderings that differ, as
   (label, expected, got). Corpus seeds run on worker domains, so the
   checks happen in [check_renders] on the test's own domain: Alcotest
   formats every check through one shared [Format] formatter, which is
   not safe to use from several domains at once. *)
let mismatch label want got =
  if String.equal want got then None else Some (label, want, got)

let check_renders =
  List.iter (fun (label, want, got) -> Alcotest.(check string) label want got)

(* One translation per (seed, variant), shared by every config. *)
let differential ~seed ~vname ~init_regs ~init_mem ?safe code =
  let trans = Jit.translate ?safe code in
  List.filter_map
    (fun cfg ->
      mismatch
        (Printf.sprintf "seed=%d %s %s" seed vname cfg.cname)
        (render_interp ~init_regs ~init_mem cfg code)
        (render_trans ~init_regs ~init_mem cfg trans))
    configs

(* ------------------------------------------------------------------ *)
(* The corpus                                                          *)
(* ------------------------------------------------------------------ *)

(* VINO_JIT_SEEDS widens (or narrows) the fixed-seed corpus: the default
   30 keeps the tier-1 run fast; the per-PR jit-differential job sets 300
   and the nightly workflow 2,000 for deeper sweeps. Seeds are always
   1..n, so a CI failure replays locally with the same env var. *)
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
   worker returns its seed's differing renderings; the runner checks
   them on its own domain, in seed order. *)
(* VINO_JIT_VARIANTS narrows the corpus to a comma-separated set of
   variant names ("all" or unset runs everything) — the CI matrix uses
   it to give the verified variant its own visible job. *)
let variant_enabled =
  match Sys.getenv_opt "VINO_JIT_VARIANTS" with
  | None | Some "" | Some "all" -> fun _ -> true
  | Some s ->
      let names = String.split_on_char ',' s in
      fun v -> List.mem v names

let corpus_case seed =
  let st = Random.State.make [| 0xD1FF; seed |] in
  let source = gen_program st in
  let vs, unproven = variants st source in
  let init_regs, init_mem = init_for st in
  ((vs, init_regs, init_mem), unproven)

let run_seed seed =
  let (vs, init_regs, init_mem), unproven = corpus_case seed in
  let diffs =
    List.concat_map
      (fun (vname, code, safe) ->
        if variant_enabled vname then
          differential ~seed ~vname ~init_regs ~init_mem ?safe code
        else [])
      vs
  in
  (* how many variants translate with bare accesses (before filtering),
     so the corpus test can assert that path is exercised, not silently
     skipped *)
  ( List.length (List.filter (fun (_, _, safe) -> Option.is_some safe) vs),
    List.map (fun pc -> (seed, pc)) unproven,
    diffs )

let test_domains =
  match Sys.getenv_opt "VINO_TEST_DOMAINS" with
  | Some s -> ( match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 1)
  | None -> 1

let map_seeds f =
  if test_domains <= 1 then List.map f corpus_seeds
  else
    let pool = Vino_par.Pool.create ~domains:test_domains () in
    Fun.protect
      ~finally:(fun () -> Vino_par.Pool.shutdown pool)
      (fun () -> Vino_par.Pool.map ~pool f corpus_seeds)

let test_corpus () =
  let results = map_seeds run_seed in
  List.iter (fun (_, _, diffs) -> check_renders diffs) results;
  (* an honest verified image is never refused: the linker proves every
     access the sealer left raw *)
  Alcotest.(check (list (pair int int)))
    "(seed, pc) of raw accesses the linker does not prove" []
    (List.concat_map (fun (_, unproven, _) -> unproven) results);
  Alcotest.(check bool)
    "corpus exercises translation with bare accesses" true
    (List.exists (fun (bare, _, _) -> bare > 0) results)

(* A single translation entered from four domains at once: every
   window's first entry races, so a domain may find a row unbuilt or a
   slot uncompiled, run the closure it just compiled, or run one another
   domain stored. Every rendering must still equal the interpreter's.
   The corpus seeds are joined by the MiSFIT-rewritten encryption loop,
   whose unrolled loop windows random programs rarely reach. *)
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
               ( Printf.sprintf "seed=%d" (k + 1),
                 fst (corpus_case (k + 1)) ))))

(* ------------------------------------------------------------------ *)
(* Edge cases                                                          *)
(* ------------------------------------------------------------------ *)

let test_empty_program () =
  check_renders
    (differential ~seed:0 ~vname:"empty"
       ~init_regs:(Array.make Insn.num_regs 0)
       ~init_mem:(Array.make mem_words 0) [||])

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
   sealed verified under its entry facts (a 16K-word segment, 2048 words
   each side), translated with the bare set the linker proves under the
   same facts. *)
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
      (* the bare set the linker proves under the sealer's facts *)
      let link =
        Vino_verify.Verify.config
          ?entry:(Option.map (fun v -> v.Vino_verify.Verify.entry) verifier)
          ~words:wall_seg_words
          ~callable:(fun _ -> true)
          ~stage:`Rewritten ()
      in
      ( code,
        Vino_verify.Report.bare_accesses
          (Vino_verify.Verify.analyse link code)
          code )

let stats t = (Jit.block_count t, Jit.fused_pairs t, Jit.elided_accesses t)

(* Pinned: [vino inspect], [Kernel.translation_stats] and the wall
   columns print these, and they are recounted from each block head's
   full straight-line window on demand, since translation compiles
   nothing. *)
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
        (10, 7, 0) );
      ( "sched",
        wall_sealed (Vino_sched.Grafts.scan_and_return_self_source ()),
        (6, 3, 0) );
      ("crypt", wall_sealed crypt_source, (3, 9, 0));
      ( "crypt-verified",
        wall_sealed ~verifier:crypt_verifier crypt_source,
        (3, 5, 2) );
    ]

(* Translation builds only static tables, and the first run builds the
   rows and compiles the windows it enters, so translating the
   encryption graft and running it once stays within a small fixed
   allocation budget (3,550 words when written; 4,498 with per-pc tails,
   a prefix ladder and exact-window tables; 2,423 once rows stopped
   dividing and a translation kept each pc's window shape and the cost
   prefix sum for its compiles).
   Allocation counts are exact, so the bound holds on any machine. *)
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
    (Printf.sprintf "translate + first run: %.0f minor words <= 2500" words)
    true (words <= 2_500.);
  Alcotest.(check (triple int int int))
    "statistics unchanged by running" (3, 9, 0) (stats t)

(* The eviction graft's first invocation walks the 64 x 64 protected-page
   scan, so it enters many windows of its nested loops, each compiled
   once (the wall bench's evict row, "1st wd"). When written: 15,569
   words; 23,087 with division-built rows, and window shapes and cycle
   costs re-derived per chained copy. Allocation counts are exact, so
   the bound holds on any machine. *)
let test_evict_first_entry_alloc () =
  let code, _ = wall_sealed (Vino_vmem.Grafts.protect_hot_pages_source ()) in
  let base = wall_seg_words in
  let mem = Mem.create (2 * wall_seg_words) in
  Mem.store mem base 64;
  for k = 1 to 64 do
    Mem.store mem (base + k) k
  done;
  for j = 0 to 63 do
    Mem.store mem (base + 128 + j) (j + 1)
  done;
  let cpu = Cpu.make ~mem ~seg:(Mem.segment ~base ~size:wall_seg_words) () in
  Cpu.set_reg cpu 1 1;
  Cpu.set_reg cpu 2 (base + 128);
  Cpu.set_reg cpu 3 64;
  Cpu.set_reg cpu 4 base;
  let w0 = Gc.minor_words () in
  let t = Jit.translate code in
  let outcome = Jit.run Cpu.env_trusted cpu t in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "halts" true (outcome = Cpu.Halted);
  Alcotest.(check bool)
    (Printf.sprintf "evict translate + first run: %.0f minor words <= 17000"
       words)
    true (words <= 17_000.)

(* Minor words of one call of [f], after a warm-up call; the boxed float
   of each [Gc.minor_words] read is measured and subtracted. *)
let words_of_call f =
  f ();
  let p0 = Gc.minor_words () in
  let p1 = Gc.minor_words () in
  let w0 = Gc.minor_words () in
  f ();
  let w1 = Gc.minor_words () in
  w1 -. w0 -. (p1 -. p0)

(* A translation-cache miss on the encryption graft: [translate] builds
   only the leader and cost-prefix tables and a row table whose entries
   all start as one shared sentinel, so it allocates nothing per window
   length (158 words when written; 1,308 with per-pc tail, ladder and
   exact-window tables, 7,327 with a stub per slot). *)
let test_translate_alloc () =
  let code, _ = wall_sealed crypt_source in
  let words =
    words_of_call (fun () -> ignore (Jit.translate code : Jit.t))
  in
  Alcotest.(check bool)
    (Printf.sprintf "translate: %.0f minor words <= 205" words)
    true (words <= 205.)

(* The rows of bench/wall.exe, run as it runs them translated: one
   recycled cpu per row, [Cpu.reset] + argument registers +
   [Cpu.refuel] + [Jit.run] under a stub environment (every kcall
   succeeds, every id is callable, no abort pending). Each is (name,
   sealed code, memory image, argument registers, fuel, outcome). *)
let wall_rows () =
  let base = wall_seg_words in
  let crypt_mem mem =
    for k = 0 to 2047 do
      Mem.store mem (base + k) k
    done
  in
  let crypt_regs cpu =
    Cpu.set_reg cpu 1 base;
    Cpu.set_reg cpu 2 (base + 2048);
    Cpu.set_reg cpu 3 2048
  in
  let full = 1_000_000_000 in
  [
    ("nop", wall_sealed [ Asm.Halt ], ignore, ignore, full, Cpu.Halted);
    ( "readahead",
      wall_sealed
        (Vino_fs.Readahead.app_directed_source ~lock_kcall:"ra.lock"),
      (fun mem -> Mem.store mem (base + Vino_fs.Readahead.pattern_slot) 17),
      (fun cpu -> Cpu.set_reg cpu 4 base),
      full,
      Cpu.Halted );
    ( "evict",
      wall_sealed (Vino_vmem.Grafts.protect_hot_pages_source ()),
      (fun mem ->
        Mem.store mem base 64;
        for k = 1 to 64 do
          Mem.store mem (base + k) k
        done;
        for j = 0 to 63 do
          Mem.store mem (base + 128 + j) (j + 1)
        done),
      (fun cpu ->
        Cpu.set_reg cpu 1 1;
        Cpu.set_reg cpu 2 (base + 128);
        Cpu.set_reg cpu 3 64;
        Cpu.set_reg cpu 4 base),
      full,
      Cpu.Halted );
    ( "sched",
      wall_sealed (Vino_sched.Grafts.scan_and_return_self_source ()),
      (fun mem ->
        for k = 0 to 127 do
          Mem.store mem (base + k) 0
        done),
      (fun cpu ->
        Cpu.set_reg cpu 1 7;
        Cpu.set_reg cpu 2 base;
        Cpu.set_reg cpu 3 128),
      full,
      Cpu.Halted );
    ( "crypt",
      wall_sealed crypt_source,
      crypt_mem,
      crypt_regs,
      full,
      Cpu.Halted );
    ( "crypt-verified",
      wall_sealed ~verifier:crypt_verifier crypt_source,
      crypt_mem,
      crypt_regs,
      full,
      Cpu.Halted );
    ( "spin",
      wall_sealed Mutate.diverge,
      ignore,
      ignore,
      Vino_disaster.Site.graft_budget,
      Cpu.Out_of_fuel );
  ]

let stub_env =
  {
    Cpu.kcall = (fun _ _ -> Cpu.K_ok);
    call_ok = (fun _ -> true);
    poll = (fun () -> None);
  }

(* A warm translated invocation allocates nothing: after two warm-up
   calls, 1,000 invocations of each wall row stay under half a minor
   word each, the threshold of bench/wall.exe's gate (it absorbs only
   the boxed [Gc.minor_words] reads; one cons cell per invocation is
   three words). Allocation counts are exact, so this holds on any
   machine. *)
let test_warm_invocation_alloc () =
  List.iter
    (fun (name, (code, safe), init, setup, fuel, expect) ->
      let mem = Mem.create (2 * wall_seg_words) in
      init mem;
      let cpu =
        Cpu.make ~mem
          ~seg:(Mem.segment ~base:wall_seg_words ~size:wall_seg_words)
          ()
      in
      let t = Jit.translate ?safe code in
      let run () =
        Cpu.reset cpu;
        setup cpu;
        Cpu.refuel cpu fuel;
        Jit.run stub_env cpu t
      in
      ignore (run () : Cpu.outcome);
      Alcotest.(check bool) (name ^ ": outcome") true (run () = expect);
      let p0 = Gc.minor_words () in
      let p1 = Gc.minor_words () in
      let w0 = Gc.minor_words () in
      for _ = 1 to 1_000 do
        ignore (run () : Cpu.outcome)
      done;
      let w1 = Gc.minor_words () in
      let words = (w1 -. w0 -. (p1 -. p0)) /. 1_000. in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.3f minor words per warm invocation < 0.5" name
           words)
        true (words < 0.5))
    (wall_rows ())

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
(* Translation cache: bare-set keying, concurrency, digest rendering    *)
(* ------------------------------------------------------------------ *)

module Kernel = Vino_core.Kernel

let cache_code =
  [| Insn.Li (1, seg_base); Ld (2, 1, 0); Ld (3, 1, 1); Halt |]

(* The same post-link code translated with no bare access and with two
   different bare sets must occupy distinct cache entries (the code
   digest alone does not key the cache), and each entry must be served
   back on a repeat lookup with an equal set. *)
let test_cache_bare_key () =
  let k = Kernel.create ~mem_words:(1 lsl 16) () in
  let first = [| false; true; false; false |] in
  let both = [| false; true; true; false |] in
  let t0 = Kernel.translate k cache_code in
  let t1 = Kernel.translate k ~safe:first cache_code in
  let t2 = Kernel.translate k ~safe:both cache_code in
  Alcotest.(check bool) "distinct translations" true
    (t0 != t1 && t1 != t2 && t0 != t2);
  Alcotest.(check (list int)) "bare accesses per translation" [ 0; 1; 2 ]
    (List.map Jit.elided_accesses [ t0; t1; t2 ]);
  let stats = Kernel.translation_stats k in
  Alcotest.(check int) "three cache entries" 3 (List.length stats);
  Alcotest.(check int) "two keyed by a bare set" 2
    (List.length
       (List.filter (fun (key, _, _) -> String.contains key '/') stats));
  Alcotest.(check bool) "an equal set hits its entry" true
    (Kernel.translate k ~safe:(Array.copy first) cache_code == t1);
  Alcotest.(check bool) "no set hits its entry" true
    (Kernel.translate k cache_code == t0)

(* The digest only picks the cache slot: two different programs under one
   digest (forged here, as a 63-bit collision would give it) must each get
   their own translation, never the other's compiled code. *)
let test_cache_hit_compares_code () =
  let k = Kernel.create ~mem_words:(1 lsl 16) () in
  let sign = Vino_misfit.Sign.forge 42 in
  let a = [| Insn.Li (0, 1); Insn.Halt |] in
  let b = [| Insn.Li (0, 2); Insn.Halt |] in
  let t_a = Kernel.translate k ~sign a in
  let t_b = Kernel.translate k ~sign b in
  Alcotest.(check bool) "colliding program gets its own translation" true
    (t_a != t_b && Jit.source t_b = b);
  Alcotest.(check bool) "a repeat of it hits" true
    (Kernel.translate k ~sign b == t_b);
  let s = Kernel.jit_cache_stats k in
  Alcotest.(check (triple int int int)) "(misses, hits, entries)" (2, 1, 1)
    (s.Kernel.jit_misses, s.Kernel.jit_hits, s.Kernel.jit_entries)

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
        Alcotest.test_case "empty program" `Quick test_empty_program;
        Alcotest.test_case "one translation shared by 4 domains" `Quick
          test_shared_across_domains;
        Alcotest.test_case "checked-mode fallback" `Quick
          test_checked_fallback;
        Alcotest.test_case "translation shape" `Quick test_translation_shape;
        Alcotest.test_case "translate + first run allocation" `Quick
          test_first_entry_alloc;
        Alcotest.test_case "tables 3-7 golden across modes" `Quick
          test_tables_golden;
        Alcotest.test_case "cache keyed by digest + bare set" `Quick
          test_cache_bare_key;
        Alcotest.test_case "cache hit compares the code" `Quick
          test_cache_hit_compares_code;
        Alcotest.test_case "cache LRU bound: eviction, shrink, sorted stats"
          `Quick test_cache_lru_eviction;
        Alcotest.test_case "cache safe under a domain pool" `Quick
          test_cache_concurrent;
        Alcotest.test_case "cache digests render losslessly" `Quick
          test_digest_hex_lossless;
        Alcotest.test_case "translate alone allocation" `Quick
          test_translate_alloc;
        Alcotest.test_case "evict first invocation allocation" `Quick
          test_evict_first_entry_alloc;
        Alcotest.test_case "warm invocations allocate nothing" `Quick
          test_warm_invocation_alloc;
      ] );
  ]
