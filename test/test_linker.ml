(* The linker's per-kernel verdict table: a cached verdict must be the
   verdict a fresh analysis would reach under the registry as it is now,
   and the table must keep the analyser off repeated loads. *)

module Asm = Vino_vm.Asm
module Insn = Vino_vm.Insn
module Cpu = Vino_vm.Cpu
module Kernel = Vino_core.Kernel
module Kcall = Vino_core.Kcall
module Linker = Vino_core.Linker
module Audit = Vino_core.Audit
module Cred = Vino_core.Cred
module Graft_point = Vino_core.Graft_point
module Serve = Vino_net.Serve

let words = 1024
let fresh () = Kernel.create ~mem_words:(1 lsl 16) ()
let nop _ = Kcall.ok
let register k ?callable name = Kernel.register_kcall k ~name ?callable nop

let seal_exn k items =
  match Kernel.seal k (Asm.assemble_exn items) with
  | Ok image -> image
  | Error e -> Alcotest.fail e

(* An indirect call through the constant id [n]: the link-time analysis
   proves the target, so the verdict turns on whether [n] is callable. *)
let call_through n : Asm.item list =
  [ Li (Asm.r1, n); Kcallr Asm.r1; Li (Asm.r0, 0); Ret ]

let marked i : Asm.item list = [ Li (Asm.r13, i); Li (Asm.r0, 0); Ret ]

let load_result ?(words = words) k image =
  match Linker.load k ~words image with
  | Ok l ->
      Linker.unload k l;
      Ok ()
  | Error e -> Error e

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let expect_accepted what k image =
  match load_result k image with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: rejected: %s" what e

let expect_uncallable what k image =
  match load_result k image with
  | Ok () -> Alcotest.failf "%s: linked" what
  | Error e ->
      Alcotest.(check bool)
        (what ^ ": " ^ e) true
        (contains e "provably not graft-callable")

let stats k =
  let s = Kernel.verdict_stats k in
  (s.Kernel.verdict_misses, s.Kernel.verdict_hits)

let check_stats what want k =
  Alcotest.(check (pair int int)) (what ^ " (misses, hits)") want (stats k)

(* A restore that drops a registration must not leave the verdict linked
   under it reachable: the restored registry takes a fresh epoch. *)
let test_restore_drops_target () =
  let k = fresh () in
  ignore (register k "base" : Kcall.fn);
  let snap = Kernel.snapshot k in
  let target = register k "target" in
  let image = seal_exn k (call_through target.Kcall.id) in
  expect_accepted "target callable" k image;
  Kernel.restore k snap;
  expect_uncallable "target unregistered by restore" k image;
  check_stats "re-analysed after restore" (2, 0) k

(* The same, with the freed id re-registered to a non-callable function:
   the registry's size and id range match the verdict's, only the epoch
   tells them apart. *)
let test_restore_reused_id () =
  let k = fresh () in
  ignore (register k "base" : Kcall.fn);
  let snap = Kernel.snapshot k in
  let target = register k "target" in
  let image = seal_exn k (call_through target.Kcall.id) in
  expect_accepted "target callable" k image;
  Kernel.restore k snap;
  let private_fn = register k ~callable:false "private" in
  Alcotest.(check int) "the new function reuses the id" target.Kcall.id
    private_fn.Kcall.id;
  expect_uncallable "id now names a private function" k image;
  check_stats "re-analysed after re-registration" (2, 0) k

let test_set_callable () =
  let k = fresh () in
  let target = register k "target" in
  let image = seal_exn k (call_through target.Kcall.id) in
  expect_accepted "callable" k image;
  Kernel.set_callable k target.Kcall.id false;
  expect_uncallable "pulled off the callable list" k image;
  Kernel.set_callable k target.Kcall.id true;
  expect_accepted "put back on the callable list" k image;
  check_stats "each flip re-analyses" (3, 0) k

(* Callers audit the load's error, so a cached rejection must carry the
   reason the analysis gave the first time. *)
let test_cached_rejection_audit () =
  let k = fresh () in
  let secret = register k ~callable:false "secret" in
  let image = seal_exn k (call_through secret.Kcall.id) in
  let point =
    Graft_point.create ~name:"verdict.point"
      ~default:(fun x -> x)
      ~setup:(fun cpu x -> Cpu.set_reg cpu 1 x)
      ~read_result:(fun cpu _ -> Ok (Cpu.reg cpu 0))
      ()
  in
  let cred = Cred.user "app" ~limits:(Vino_txn.Rlimit.unlimited ()) in
  let replace () =
    match Graft_point.replace point k ~cred image with
    | Ok () -> Alcotest.fail "call to a private function linked"
    | Error e -> e
  in
  let fresh_error = replace () in
  let cached_error = replace () in
  check_stats "second replace hits" (1, 1) k;
  Alcotest.(check string) "same error" fresh_error cached_error;
  let reasons =
    List.filter_map
      (fun (e : Audit.entry) ->
        match e.Audit.event with
        | Audit.Load_rejected { point; reason } -> Some (point, reason)
        | _ -> None)
      (Audit.entries k.Kernel.audit)
  in
  Alcotest.(check (list (pair string string)))
    "two identical Load_rejected entries"
    [ ("verdict.point", fresh_error); ("verdict.point", fresh_error) ]
    reasons

(* One image reloaded analyses once; the segment size is part of the
   key; and the serve churn shape (16 tenants x 400 requests, cache
   capacity 2, a reinstall every 6th arrival) analyses each tenant's
   image once across its 1,072 loads, all of which miss the
   translation cache. *)
let test_counts () =
  let k = fresh () in
  let image = seal_exn k (marked 1) in
  for _ = 1 to 100 do
    expect_accepted "reload" k image
  done;
  check_stats "100 reloads" (1, 99) k;
  let k2 = fresh () in
  let image2 = seal_exn k2 (marked 2) in
  List.iter
    (fun words ->
      match load_result ~words k2 image2 with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    [ 1024; 2048 ];
  check_stats "two segment sizes" (2, 0) k2;
  let r = Serve.run { Serve.default with tenants = 16; requests = 400 } in
  Alcotest.(check int) "serve churn: translation misses" 1072
    r.Serve.jit_misses;
  Alcotest.(check (pair int int))
    "serve churn: verdict (misses, hits)" (16, 1056)
    (r.Serve.verdict_misses, r.Serve.verdict_hits)

(* Overflowing the bound clears the table; the first image's verdict,
   a rejection, is recomputed rather than lost. *)
let test_overflow () =
  let k = fresh () in
  let secret = register k ~callable:false "secret" in
  let first = seal_exn k (call_through secret.Kcall.id) in
  expect_uncallable "first load" k first;
  for i = 1 to Kernel.verdict_cap do
    expect_accepted "filler" k (seal_exn k (marked i))
  done;
  let s = Kernel.verdict_stats k in
  Alcotest.(check bool) "table cleared at the bound" true
    (s.Kernel.verdict_entries < Kernel.verdict_cap);
  expect_uncallable "first image after overflow" k first;
  check_stats "every load missed" (Kernel.verdict_cap + 2, 0) k

(* The digest only picks the slot: under an equal digest, different
   code must be analysed afresh, never handed the stored verdict. *)
let test_digest_collision () =
  let k = fresh () in
  let sign = Vino_misfit.Sign.forge 7 in
  let verdict code reason =
    match
      Kernel.link_verdict k ~sign ~words ~entry:[] code (fun () ->
          Error reason)
    with
    | Ok _ -> Alcotest.fail "no verdict accepts"
    | Error e -> e
  in
  let a = [| Insn.Li (0, 0); Insn.Ret |] in
  let b = [| Insn.Li (0, 1); Insn.Ret |] in
  Alcotest.(check string) "first code analysed" "a" (verdict a "a");
  Alcotest.(check string) "colliding code analysed" "b" (verdict b "b");
  Alcotest.(check string) "colliding code now cached" "b" (verdict b "c");
  check_stats "collision misses" (2, 1) k

(* A reload of the sealed encryption graft with both the translation
   and the verdict cache hitting: signature check, patching, the id
   check, one digest, two lookups and a segment, with no analysis
   (529 words when written; 4,989 re-running the analyser on every
   load). Allocation counts are exact, so the bound holds on any
   machine. *)
let test_reload_alloc () =
  let k = fresh () in
  let image =
    seal_exn k (Vino_stream.Grafts.xor_encrypt_source ~key:0x5EC2E7)
  in
  let reload () =
    match load_result ~words:(1 lsl 14) k image with
    | Ok () -> ()
    | Error e -> Alcotest.fail e
  in
  let words = Test_jit.words_of_call reload in
  check_stats "verdict hit" (1, 1) k;
  let j = Kernel.jit_cache_stats k in
  Alcotest.(check (pair int int)) "translation (misses, hits)" (1, 1)
    (j.Kernel.jit_misses, j.Kernel.jit_hits);
  Alcotest.(check bool)
    (Printf.sprintf "reload: %.0f minor words <= 700" words)
    true (words <= 700.)

(* Two sealed grafts whose immediates differ only in bit 62, in two
   instructions. A digest step that fed whole words into the state would
   carry the first flip unchanged to the second and cancel it there,
   giving both grafts one cache key; each must still run its own code. *)
let test_top_bit_twins_run_their_own_code () =
  let k = fresh () in
  let graft v = seal_exn k [ Li (Asm.r0, v); Li (Asm.r2, v); Ret ] in
  let run v =
    match Linker.load k ~words (graft v) with
    | Error e -> Alcotest.fail e
    | Ok l ->
        let cpu = Cpu.make ~mem:k.Kernel.mem ~seg:l.Linker.seg () in
        let outcome = Vino_vm.Jit.run Cpu.env_trusted cpu l.Linker.trans in
        Linker.unload k l;
        Alcotest.(check bool) "halts" true (outcome = Cpu.Halted);
        Cpu.reg cpu Asm.r0
  in
  Alcotest.(check int) "first graft's result" (-1) (run (-1));
  Alcotest.(check int) "second graft's result" max_int (run max_int);
  Alcotest.(check int) "two translations" 2
    (Kernel.jit_cache_stats k).Kernel.jit_misses

(* One serve handler's translation-cache miss, as serve-churn pays it on
   a reinstall: [Linker.load] with the verdict cached and the translation
   evicted (signature check, patching, the post-link digest, translate),
   then the first invocation, which builds the rows and compiles the
   windows it enters. At 40 work iterations, when written: ra 5,112
   words, evict 1,707, sched 5,157 and http 5,024; 9,875, 2,902, 9,646
   and 9,177 with byte-at-a-time digests over built word arrays,
   division-built rows, and window shapes and cycle costs re-derived
   per chained copy. ra 3,266, evict 1,554, sched 3,279 and http 3,376
   since each pc's shape is derived once and loop copies chain with no
   per-copy continuation, options or tuples.
   Allocation counts are exact, so the bounds hold on any machine. *)
let test_serve_miss_alloc () =
  List.iter
    (fun (tenant, bound) ->
      let k = Kernel.create ~mem_words:(1 lsl 17) ~jit_cache_cap:1 () in
      List.iter
        (fun name -> ignore (register k name : Kcall.fn))
        [ "serve.acquire"; "serve.done" ];
      let handler t =
        seal_exn k (Serve.graft_source ~tenant:t ~flood:false)
      in
      let image = handler tenant and other = handler (tenant + 4) in
      let load image =
        match Linker.load k ~words:288 image with
        | Ok l -> l
        | Error e -> Alcotest.fail e
      in
      let env =
        {
          Cpu.kcall = (fun _ _ -> Cpu.K_ok);
          call_ok = (fun _ -> true);
          poll = (fun () -> None);
        }
      in
      let miss () =
        let l = load image in
        let mem = k.Kernel.mem and base = l.Linker.seg.Vino_vm.Mem.base in
        List.iteri
          (fun i w -> Vino_vm.Mem.store mem (base + i) w)
          [ 0; tenant; 1; 40 ];
        let cpu = Cpu.make ~mem ~seg:l.Linker.seg () in
        Cpu.set_reg cpu 1 base;
        Cpu.set_reg cpu 2 16;
        (l, Vino_vm.Jit.run env cpu l.Linker.trans)
      in
      (* evicts [image]'s translation; the first round caches both
         verdicts and grows the run-context pool *)
      let evict () = Linker.unload k (load other) in
      evict ();
      Linker.unload k (fst (miss ()));
      evict ();
      let p0 = Gc.minor_words () in
      let p1 = Gc.minor_words () in
      let w0 = Gc.minor_words () in
      let l, outcome = miss () in
      let w1 = Gc.minor_words () in
      Linker.unload k l;
      let words = w1 -. w0 -. (p1 -. p0) in
      let family = Serve.family_name tenant in
      Alcotest.(check bool) (family ^ ": halts") true (outcome = Cpu.Halted);
      check_stats (family ^ ": verdicts") (2, 2) k;
      let j = Kernel.jit_cache_stats k in
      Alcotest.(check (pair int int))
        (family ^ ": translations (misses, hits)")
        (4, 0)
        (j.Kernel.jit_misses, j.Kernel.jit_hits);
      Alcotest.(check bool)
        (Printf.sprintf "%s miss: %.0f minor words <= %d" family words bound)
        true
        (words <= float_of_int bound))
    [ (0, 3_400); (1, 1_600); (2, 3_400); (3, 3_500) ]

(* Property: free graft memory reads zero after any sequence of loads,
   segment fills (standing in for graft stores) and unloads, because
   [Linker.unload] zeroes a block before freeing it. Snapshot restores
   rely on this: they only zero and re-image live blocks. *)
let prop_free_memory_reads_zero =
  let module Mem = Vino_vm.Mem in
  let module Segalloc = Vino_core.Segalloc in
  QCheck2.Test.make ~name:"free graft memory reads zero" ~count:100
    QCheck2.Gen.(
      list_size (int_range 1 30)
        (triple (int_range 0 2) (int_range 0 255) (int_range 1 1000)))
    (fun ops ->
      let k = Kernel.create ~mem_words:(1 lsl 12) () in
      let mem = k.Kernel.mem in
      let image = seal_exn k [ Li (Asm.r0, 0); Ret ] in
      let live = ref [] in
      let nth i = List.nth !live (i mod List.length !live) in
      let step (op, a, v) =
        match op with
        | 0 -> (
            match Linker.load k ~words:(8 + a) image with
            | Ok l -> live := l :: !live
            | Error _ -> ())
        | 1 when !live <> [] ->
            let seg = (nth a).Linker.seg in
            Mem.fill mem seg.Mem.base seg.Mem.size v
        | 2 when !live <> [] ->
            let l = nth a in
            Linker.unload k l;
            live := List.filter (fun x -> x != l) !live
        | _ -> ()
      in
      (* graft segments are carved from the upper half of memory *)
      let free_reads_zero () =
        let blocks = Segalloc.blocks k.Kernel.segalloc in
        let rec go addr =
          addr >= Mem.size mem
          || (Mem.load mem addr = 0
             || List.exists (fun b -> Mem.in_segment b addr) blocks)
             && go (addr + 1)
        in
        go (Mem.size mem / 2)
      in
      List.for_all
        (fun op ->
          step op;
          free_reads_zero ())
        ops)

(* A relocation index outside the code: the signature verifies (the
   image is sealed under the kernel's key), but no instruction sits at
   index 99 to patch. The load fails with an error and raises nothing,
   and the stream such an image serialises to does not parse back. *)
let test_reloc_outside_code () =
  let k = fresh () in
  let (_ : Kcall.fn) = register k "x" in
  let obj =
    {
      Asm.code = [| Insn.Li (Asm.r0, 0); Insn.Ret |];
      relocs = [ { Asm.index = 99; name = "x" } ];
    }
  in
  let image = Kernel.seal_unsafe k obj in
  (match Linker.load k ~words ~privileged:true image with
  | Ok _ -> Alcotest.fail "an out-of-code relocation linked"
  | Error e ->
      Alcotest.(check bool) ("refused: " ^ e) true
        (contains e "outside the code"));
  Alcotest.(check bool) "deserialise refuses the stream" true
    (Result.is_error
       (Vino_misfit.Image.deserialise (Vino_misfit.Image.serialise image)))

let suite =
  [
    ( "linker",
      [
        Alcotest.test_case "verdict: restore unregisters the target" `Quick
          test_restore_drops_target;
        Alcotest.test_case "verdict: restore then reused id" `Quick
          test_restore_reused_id;
        Alcotest.test_case "verdict: set_callable flips the verdict" `Quick
          test_set_callable;
        Alcotest.test_case "verdict: cached rejection audits the same" `Quick
          test_cached_rejection_audit;
        Alcotest.test_case "verdict: hit and miss counts" `Quick test_counts;
        Alcotest.test_case "verdict: overflow keeps verdicts" `Quick
          test_overflow;
        Alcotest.test_case "reload with both caches hitting: allocation"
          `Quick test_reload_alloc;
        Alcotest.test_case "verdict: equal digest, other code misses" `Quick
          test_digest_collision;
        Alcotest.test_case "bit-62 twins run their own code" `Quick
          test_top_bit_twins_run_their_own_code;
        Alcotest.test_case "serve handler miss: allocation" `Quick
          test_serve_miss_alloc;
        Alcotest.test_case "relocation outside the code refused" `Quick
          test_reloc_outside_code;
        QCheck_alcotest.to_alcotest prop_free_memory_reads_zero;
      ] );
  ]
