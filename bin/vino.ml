(* vino — command-line frontend for the simulated VINO kernel.

   vino inspect GRAFT   show a builtin graft before/after MiSFIT rewriting,
                        its signature, and a cycle estimate
   vino tables [TABLE]  regenerate the paper's tables (3..7, abortmodel,
                        lockfactor)
   vino disaster        seeded fault-injection campaign with post-recovery
                        invariant checks
   vino rules           Table 1 with the enforcing mechanism for each rule
   vino points          list the graft points a demo kernel publishes *)

open Cmdliner

let builtin_grafts : (string * string * (unit -> Vino_vm.Asm.item list)) list
    =
  [
    ( "readahead",
      "application-directed compute-ra (Table 3)",
      fun () ->
        Vino_fs.Readahead.app_directed_source ~lock_kcall:"ra.lock:FILE" );
    ( "evict",
      "protect-hot-pages page eviction (Table 4)",
      fun () ->
        Vino_vmem.Grafts.protect_hot_pages_source ~lock_kcall:"evict.lock:VAS"
          () );
    ( "sched",
      "scan-process-list schedule delegate (Table 5)",
      fun () ->
        Vino_sched.Grafts.scan_and_return_self_source
          ~lock_kcall:"sched.proclist-lock:1" () );
    ( "crypt",
      "xor stream encryption (Table 6)",
      fun () -> Vino_stream.Grafts.xor_encrypt_source ~key:0x5EC2E7 );
    ( "copy",
      "trivial stream copy (worst-case SFI store ratio)",
      fun () -> Vino_stream.Grafts.copy_source );
    ("httpd", "the Figure 2 HTTP server", fun () -> Vino_net.Httpd.server_source);
  ]

let graft_names = List.map (fun (n, _, _) -> n) builtin_grafts

(* --------------------------- kcall-flow report ------------------------ *)

(* Pre-link flow analysis: relocations get synthetic dense ids in sorted
   import-name order, so the graph is computable (and stable across runs)
   without a kernel registry. Raw direct ids, if any, fall outside the
   synthetic range and take the conservative full-row fallback. *)
let synthetic_flow code relocs =
  let names =
    List.sort_uniq compare
      (List.map (fun (r : Vino_vm.Asm.reloc) -> r.name) relocs)
  in
  let id_of n =
    let rec go k = function
      | [] -> assert false
      | x :: tl -> if String.equal x n then k else go (k + 1) tl
    in
    go 0 names
  in
  let code = Array.copy code in
  List.iter
    (fun (r : Vino_vm.Asm.reloc) ->
      code.(r.index) <- Vino_vm.Insn.Kcall (id_of r.name))
    relocs;
  (names, Vino_verify.Kflow.analyse ~nfuncs:(List.length names) code)

let print_flow_graph names g =
  let module K = Vino_verify.Kflow in
  let name id =
    match List.nth_opt names id with
    | Some n -> n
    | None -> Printf.sprintf "#%d" id
  in
  let set = function
    | [] -> "(none)"
    | ids -> String.concat ", " (List.map name ids)
  in
  Printf.printf "kcall-flow graph: %d nodes, %d edges, %d kcall sites%s\n"
    (K.node_count g) (K.edge_count g) (K.sites g)
    (if K.degraded g then
       " — DEGRADED (indirect intra-graft call): fully permissive"
     else "");
  Printf.printf "  entry: %s\n  exit: %s%s\n"
    (set (K.entry_ids g))
    (set (K.exit_ids g))
    (if K.may_exit_without_kcall g then " (may exit with no kcall)" else "");
  K.iter_edges g (fun a b ->
      Printf.printf "  edge: %s -> %s\n" (name a) (name b));
  Printf.printf "  fallback (full) rows: %d of %d\n" (K.full_rows g)
    (K.nfuncs g + 1);
  let t = K.compile g in
  Printf.printf "transition table: %d rows x %d words/row = %d words\n"
    (K.rows t) (K.row_words t) (K.footprint_words t)

(* ------------------------------- inspect ------------------------------ *)

let class_counts code =
  let alu = ref 0
  and memory = ref 0
  and control = ref 0
  and kcall = ref 0
  and sfi = ref 0 in
  Array.iter
    (fun (i : Vino_vm.Insn.t) ->
      match i with
      | Li _ | Mov _ | Alu _ | Alui _ -> incr alu
      | Ld _ | St _ | Push _ | Pop _ -> incr memory
      | Br _ | Jmp _ | Call _ | Callr _ | Ret | Halt -> incr control
      | Kcall _ | Kcallr _ -> incr kcall
      | Sandbox _ | Checkcall _ -> incr sfi)
    code;
  (!alu, !memory, !control, !kcall, !sfi)

let static_cycles code =
  Array.fold_left
    (fun acc i -> acc + Vino_vm.Costs.insn Vino_vm.Costs.default i)
    0 code

let print_program title code =
  Printf.printf "%s (%d instructions, %d static cycles):\n" title
    (Array.length code) (static_cycles code);
  Format.printf "%a@." Vino_vm.Insn.pp_program code

let source_of name =
  match List.find_opt (fun (n, _, _) -> n = name) builtin_grafts with
  | Some (_, description, source) -> (description, source ())
  | None ->
      if Sys.file_exists name then
        match Vino_vm.Parse.parse_file name with
        | Ok items -> ("from " ^ name, items)
        | Error e ->
            Printf.eprintf "%s: %s\n" name e;
            exit 1
      else begin
        Printf.eprintf
          "unknown graft %S; try a .gasm file or one of: %s\n" name
          (String.concat ", " graft_names);
        exit 1
      end

let inspect name show_code =
  match source_of name with
  | description, source -> (
      Printf.printf "graft %s — %s\n\n" name description;
      let obj = Vino_vm.Asm.assemble_exn source in
      if show_code then print_program "source" obj.Vino_vm.Asm.code;
      match Vino_misfit.Image.seal ~key:"vino-misfit-toolchain" obj with
      | Error e ->
          Printf.eprintf "MiSFIT rejected the graft: %s\n" e;
          exit 1
      | Ok image ->
          if show_code then
            print_program "after MiSFIT" image.Vino_misfit.Image.code;
          let a0, m0, c0, k0, s0 = class_counts obj.Vino_vm.Asm.code in
          let a1, m1, c1, k1, s1 = class_counts image.Vino_misfit.Image.code in
          Printf.printf
            "instruction classes      source    rewritten\n\
            \  alu/move               %6d    %9d\n\
            \  memory access          %6d    %9d\n\
            \  control flow           %6d    %9d\n\
            \  kernel calls           %6d    %9d\n\
            \  SFI (sandbox/check)    %6d    %9d\n"
            a0 a1 m0 m1 c0 c1 k0 k1 s0 s1;
          Printf.printf "code growth: %d -> %d instructions (%.0f%%)\n"
            (Array.length obj.Vino_vm.Asm.code)
            (Array.length image.Vino_misfit.Image.code)
            (100.
            *. (float_of_int (Array.length image.Vino_misfit.Image.code)
                /. float_of_int (Array.length obj.Vino_vm.Asm.code)
               -. 1.));
          let tr = Vino_vm.Jit.translate image.Vino_misfit.Image.code in
          Printf.printf
            "translation: %d basic blocks, %d fused superinstruction pairs, \
             %d proven-safe accesses compiled bare\n"
            (Vino_vm.Jit.block_count tr)
            (Vino_vm.Jit.fused_pairs tr)
            (Vino_vm.Jit.elided_accesses tr);
          Printf.printf "imports: %s\n"
            (match image.Vino_misfit.Image.relocs with
            | [] -> "(none)"
            | rs ->
                String.concat ", "
                  (List.map (fun r -> r.Vino_vm.Asm.name) rs));
          Format.printf "signature: %a@." Vino_misfit.Sign.pp
            image.Vino_misfit.Image.signature;
          print_newline ();
          let names, g =
            synthetic_flow image.Vino_misfit.Image.code
              image.Vino_misfit.Image.relocs
          in
          print_flow_graph names g;
          (* Link the image into a throwaway kernel (stub kcalls for its
             imports) for the registry-sized table footprint and the
             translation-cache statistics, in stable digest order. *)
          let kernel = Vino_core.Kernel.create ~mem_words:(1 lsl 16) () in
          List.iter
            (fun n ->
              ignore
                (Vino_core.Kernel.register_kcall kernel ~name:n (fun _ ->
                     Vino_core.Kcall.ok)))
            names;
          (match Vino_core.Linker.load kernel ~words:4096 image with
          | Error e -> Printf.printf "linked table: (load refused: %s)\n" e
          | Ok loaded ->
              let f = loaded.Vino_core.Linker.flow in
              Printf.printf
                "linked transition table: %d rows x %d words/row = %d words\n"
                (Vino_verify.Kflow.rows f)
                (Vino_verify.Kflow.row_words f)
                (Vino_verify.Kflow.footprint_words f));
          List.iter
            (fun (digest, blocks, fused) ->
              Printf.printf "translation cache: %s blocks=%d fused=%d\n"
                digest blocks fused)
            (Vino_core.Kernel.translation_stats kernel))

(* --------------------------- image files ------------------------------ *)

let write_image path image = Vino_misfit.Image.save image ~path

let read_image path =
  match Vino_misfit.Image.load ~path with
  | Ok image -> image
  | Error e ->
      Printf.eprintf "%s: %s\n" path e;
      exit 1

let default_key = "vino-misfit-toolchain"

let seal name output key unsafe flowcheck =
  let _, source = source_of name in
  let obj = Vino_vm.Asm.assemble_exn source in
  if flowcheck then begin
    (* Gate sealing on a resolvable kcall-flow graph: a graph degraded to
       fully-permissive gives dispatch-time flow enforcement nothing to
       check, so refuse to produce the image. *)
    let _, g = synthetic_flow obj.Vino_vm.Asm.code obj.Vino_vm.Asm.relocs in
    if Vino_verify.Kflow.degraded g then begin
      Printf.eprintf
        "flowcheck: %s has an unresolvable kcall-flow graph (indirect \
         intra-graft call) — sealing refused\n"
        name;
      exit 1
    end;
    Printf.printf
      "flowcheck: OK — %d kcall-flow edges, %d fallback rows\n"
      (Vino_verify.Kflow.edge_count g)
      (Vino_verify.Kflow.full_rows g)
  end;
  let image =
    if unsafe then Vino_misfit.Image.seal_unsafe ~key obj
    else
      match Vino_misfit.Image.seal ~key obj with
      | Ok image -> image
      | Error e ->
          Printf.eprintf "MiSFIT rejected the graft: %s\n" e;
          exit 1
  in
  write_image output image;
  Printf.printf "sealed %s -> %s (%d instructions%s)\n" name output
    (Array.length image.Vino_misfit.Image.code)
    (if unsafe then ", NO SFI" else "")

let verify_signature path key flowcheck =
  let image = read_image path in
  if Vino_misfit.Image.verify ~key image then begin
    Printf.printf "%s: signature OK (%d instructions, imports: %s)\n" path
      (Array.length image.Vino_misfit.Image.code)
      (match image.Vino_misfit.Image.relocs with
      | [] -> "none"
      | rs -> String.concat ", " (List.map (fun r -> r.Vino_vm.Asm.name) rs));
    let names, g =
      synthetic_flow image.Vino_misfit.Image.code
        image.Vino_misfit.Image.relocs
    in
    print_flow_graph names g;
    if flowcheck && Vino_verify.Kflow.degraded g then begin
      Printf.printf "flowcheck: FAIL — unresolvable kcall-flow graph\n";
      exit 1
    end;
    exit 0
  end
  else begin
    Printf.printf "%s: SIGNATURE INVALID — the kernel would refuse it\n" path;
    exit 1
  end

let static_verify name words rewritten seg_regs flowcheck =
  if words < 1 then begin
    Printf.eprintf "verify: --words must be at least 1\n";
    exit 2
  end;
  (match
     List.find_opt
       (fun r -> r < 0 || r >= Vino_vm.Insn.num_regs)
       seg_regs
   with
  | Some r ->
      Printf.eprintf "verify: --seg %d is not a register (r0..r%d)\n" r
        (Vino_vm.Insn.num_regs - 1);
      exit 2
  | None -> ());
  let description, source = source_of name in
  let obj = Vino_vm.Asm.assemble_exn source in
  let stage = if rewritten then `Rewritten else `Source in
  let entry =
    List.map (fun r -> (r, Vino_verify.Verify.seg_window ())) seg_regs
  in
  let conf = Vino_verify.Verify.config ~entry ~words ~stage () in
  let report = Vino_verify.Verify.analyse conf obj.Vino_vm.Asm.code in
  Printf.printf "graft %s — %s\nstatic verification, segment >= %d words:\n\n"
    name description words;
  Vino_verify.Report.pp_annotated Format.std_formatter obj.Vino_vm.Asm.code
    report;
  Format.print_flush ();
  print_newline ();
  let names, g = synthetic_flow obj.Vino_vm.Asm.code obj.Vino_vm.Asm.relocs in
  print_flow_graph names g;
  let flow_failed = flowcheck && Vino_verify.Kflow.degraded g in
  if flowcheck then
    Printf.printf "flowcheck: %s\n"
      (if flow_failed then
         "FAIL — unresolvable kcall-flow graph, sealing would be refused"
       else "OK — graph fully resolved");
  if Vino_verify.Report.ok report then begin
    Printf.printf "verdict: OK — %d/%d accesses and %d/%d indirect calls \
                   need no run-time check\n"
      (Vino_verify.Report.safe_accesses report)
      (Vino_verify.Report.total_accesses report)
      (Vino_verify.Report.safe_calls report)
      (Vino_verify.Report.total_icalls report);
    exit (if flow_failed then 1 else 0)
  end
  else begin
    Printf.printf "verdict: REJECT — the linker would refuse this graft\n";
    exit 1
  end

let verify path key words rewritten seg_regs flowcheck =
  if Filename.check_suffix path ".gimg" then verify_signature path key flowcheck
  else static_verify path words rewritten seg_regs flowcheck

(* ------------------------------- run ----------------------------------- *)

(* Kernels created by a command pick the mode up from
   {!Vino_vm.Jit.default_mode}, so set it before anything runs. *)
let mode_arg =
  let mode_conv =
    Arg.enum
      [
        ("interp", Vino_vm.Jit.Interp);
        ("translated", Vino_vm.Jit.Translated);
      ]
  in
  Arg.(
    value
    & opt mode_conv Vino_vm.Jit.Translated
    & info [ "mode" ] ~docv:"MODE"
        ~doc:
          "Graft execution mode: $(b,translated) (closure-threaded \
           translation cache, the default) or $(b,interp) (the reference \
           interpreter). Outcomes, cycles and all counters are \
           bit-identical; only host wall-clock time differs.")

let set_mode m = Vino_vm.Jit.default_mode := m

(* -j N: deterministic fan-out over N domains. Results are identical at
   any N; -j 1 is byte-for-byte the serial code path. *)
let jobs_arg =
  Arg.(
    value
    & opt int (Domain.recommended_domain_count ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Fan independent work units out over $(docv) domains (default: \
           the recommended domain count). Results are identical at any \
           $(docv); $(b,-j 1) runs the serial code path.")

let with_pool jobs f =
  if jobs <= 1 then f None
  else
    let pool = Vino_par.Pool.create ~domains:jobs () in
    Fun.protect
      ~finally:(fun () -> Vino_par.Pool.shutdown pool)
      (fun () -> f (Some pool))

let run_graft name args stub_imports =
  let kernel = Vino_core.Kernel.create ~mem_words:(1 lsl 16) () in
  let image =
    if Filename.check_suffix name ".gimg" then read_image name
    else
      let _, source = source_of name in
      match Vino_core.Kernel.seal kernel (Vino_vm.Asm.assemble_exn source) with
      | Ok image -> image
      | Error e ->
          Printf.eprintf "seal failed: %s\n" e;
          exit 1
  in
  if stub_imports then
    List.iter
      (fun r ->
        let fn_name = r.Vino_vm.Asm.name in
        if
          Vino_core.Kcall.find_by_name kernel.Vino_core.Kernel.registry
            fn_name
          = None
        then
          ignore
            (Vino_core.Kernel.register_kcall kernel ~name:fn_name (fun ctx ->
                 Printf.printf "  [stub kcall %s(%d, %d)]\n" fn_name
                   (Vino_core.Kcall.arg ctx.Vino_core.Kcall.cpu 0)
                   (Vino_core.Kcall.arg ctx.Vino_core.Kcall.cpu 1);
                 Vino_core.Kcall.return ctx.Vino_core.Kcall.cpu 0;
                 Vino_core.Kcall.ok)))
      image.Vino_misfit.Image.relocs;
  match Vino_core.Linker.load kernel ~words:4096 image with
  | Error e ->
      Printf.eprintf "linker: %s\n" e;
      exit 1
  | Ok loaded ->
      let engine = kernel.Vino_core.Kernel.engine in
      ignore
        (Vino_sim.Engine.spawn engine ~name:"playground" (fun () ->
             let txn =
               Vino_txn.Txn.begin_ kernel.Vino_core.Kernel.txn_mgr
                 ~name:"playground" ()
             in
             let cpu, outcome =
               Vino_core.Wrapper.exec kernel loaded ~txn
                 ~cred:Vino_core.Cred.root
                 ~limits:(Vino_txn.Rlimit.unlimited ()) ~budget:50_000_000
                 ~setup:(fun cpu ->
                   List.iteri
                     (fun k v ->
                       if k < 4 then Vino_vm.Cpu.set_reg cpu (1 + k) v)
                     args)
                 ()
             in
             (match outcome with
             | Vino_vm.Cpu.Halted -> ignore (Vino_txn.Txn.commit txn)
             | _ -> Vino_txn.Txn.abort txn ~reason:"playground");
             Format.printf "outcome:   %a@." Vino_vm.Cpu.pp_outcome outcome;
             Printf.printf "r0:        %d\n" (Vino_vm.Cpu.reg cpu 0);
             Printf.printf "cycles:    %d graft (%.1f us at 120 MHz)\n"
               (Vino_vm.Cpu.cycles cpu)
               (Vino_vm.Costs.us_of_cycles (Vino_vm.Cpu.cycles cpu));
             Printf.printf "insns:     %d executed, %d memory accesses\n"
               (Vino_vm.Cpu.insns_executed cpu)
               (Vino_vm.Cpu.mem_accesses cpu)));
      Vino_core.Kernel.run kernel;
      Printf.printf "simulated time including kernel services: %.1f us\n"
        (Vino_core.Kernel.now_us kernel)

(* ------------------------------- tables ------------------------------- *)

let run_table iterations = function
  | "table3" ->
      Vino_measure.Table.print ~title:"Table 3: read-ahead"
        (Vino_measure.Sc_readahead.table ~iterations ())
  | "table4" ->
      Vino_measure.Table.print ~title:"Table 4: page eviction"
        (Vino_measure.Sc_evict.table ~iterations ())
  | "table5" ->
      Vino_measure.Table.print ~title:"Table 5: scheduling"
        (Vino_measure.Sc_sched.table ~iterations ())
  | "table6" ->
      Vino_measure.Table.print ~title:"Table 6: encryption"
        (Vino_measure.Sc_crypt.table ~iterations ())
  | "table7" ->
      Vino_measure.Table.print ~title:"Table 7: abort costs"
        (Vino_measure.Abort_model.table7 ~iterations ())
  | "abortmodel" ->
      Vino_measure.Table.print ~title:"Abort model (35 + 10L)"
        (Vino_measure.Abort_model.model_table ~iterations ())
  | "lockfactor" ->
      Vino_measure.Table.print ~title:"Figures 4/5"
        (Vino_measure.Lock_factor.table ~iterations ())
  | other ->
      Printf.eprintf "unknown table %S\n" other;
      exit 1

let all_tables =
  [ "table3"; "table4"; "table5"; "table6"; "table7"; "abortmodel";
    "lockfactor" ]

(* ------------------------------ disaster ------------------------------ *)

(* A JSON string literal. OCaml's [%S] is not one: it writes control
   bytes as decimal [\ddd] escapes. *)
let json_str s = "\"" ^ Vino_trace.Json.escape s ^ "\""

(* Hand-rolled, field-ordered JSON: the snapshot-determinism CI job diffs
   forked (-j 1 and -j 4) and fresh campaign reports byte-for-byte, so the
   encoding must be a pure function of the report — in particular it must
   not mention whether trials were forked. *)
let disaster_json (r : Vino_disaster.Campaign.report) =
  let module C = Vino_disaster.Campaign in
  let b = Buffer.create 4096 in
  let f fmt = Printf.bprintf b fmt in
  f "{\n";
  f "  \"seed\": %d,\n" r.C.seed;
  f "  \"count\": %d,\n" r.C.count;
  f "  \"records\": [";
  List.iteri
    (fun k (rc : C.record) ->
      if k > 0 then f ",";
      f "\n    {\"index\": %d, \"family\": %s, \"kind\": %s, \"note\": %s, "
        rc.C.index
        (json_str (Vino_disaster.Site.family_name rc.C.family))
        (json_str (Vino_disaster.Injector.name rc.C.kind))
        (json_str rc.C.note);
      f "\"expect\": %s, \"observed\": %s, \"vtime\": %d, "
        (json_str (Vino_disaster.Injector.expectation_name rc.C.expect))
        (json_str (Vino_disaster.Injector.expectation_name rc.C.observed))
        rc.C.vtime;
      f "\"fingerprint\": %s, \"violations\": ["
        (json_str rc.C.fingerprint);
      List.iteri
        (fun j v ->
          if j > 0 then f ", ";
          f "%s" (json_str v))
        rc.C.violations;
      f "]}")
    r.C.records;
  f "\n  ]\n}\n";
  Buffer.contents b

let disaster seed count costs jobs mode fork recheck json =
  set_mode mode;
  with_pool jobs (fun pool ->
      let report =
        Vino_disaster.Campaign.run ?pool ~fork ~recheck_every:recheck ~seed
          ~count ()
      in
      if json then print_string (disaster_json report)
      else Format.printf "%a@." Vino_disaster.Campaign.pp report;
      if costs then
        Vino_measure.Table.print
          ~title:"Disaster rig: recovery cost by fault class (stream site)"
          ~notes:"Delta over the healthy row is detection + abort + removal."
          (Vino_measure.Sc_disaster.table ());
      if not (Vino_disaster.Campaign.ok report) then begin
        List.iter
          (Printf.eprintf "violation: %s\n")
          (Vino_disaster.Campaign.violations report);
        exit 1
      end)

(* -------------------------------- serve ------------------------------- *)

module Serve = Vino_net.Serve

(* Hand-rolled, field-ordered JSON: the serve-determinism CI job diffs
   two of these byte-for-byte (-j 1 vs -j 4), so the encoding must not
   depend on anything but the report. *)
let serve_json r =
  let cfg = r.Serve.config in
  let b = Buffer.create 4096 in
  let f fmt = Printf.bprintf b fmt in
  f "{\n";
  f
    "  \"config\": {\"tenants\": %d, \"requests\": %d, \"interval\": %d, \
     \"pause\": %d, \"max_inflight\": %d, \"jit_cache_cap\": %d, \
     \"reinstall_every\": %d, \"shards\": %d, \"path\": %s, \"seed\": %d, \
     \"runaway\": %s, \"net_quota\": %d},\n"
    cfg.Serve.tenants cfg.Serve.requests cfg.Serve.interval cfg.Serve.pause
    cfg.Serve.max_inflight cfg.Serve.jit_cache_cap cfg.Serve.reinstall_every
    cfg.Serve.shards
    (json_str (Serve.path_name cfg.Serve.path))
    cfg.Serve.seed
    (match cfg.Serve.runaway with
    | None -> "null"
    | Some i -> string_of_int i)
    cfg.Serve.net_quota;
  f "  \"served\": %d,\n" r.Serve.served;
  f "  \"rejected\": %d,\n" r.Serve.rejected;
  f "  \"admission_audited\": %d,\n" r.Serve.admission_audited;
  f "  \"handler_failures\": %d,\n" r.Serve.handler_failures;
  f "  \"transmitted\": %d,\n" r.Serve.transmitted;
  f "  \"quota_denials\": %d,\n" r.Serve.quota_denials;
  f "  \"jit\": {\"hits\": %d, \"misses\": %d, \"evictions\": %d},\n"
    r.Serve.jit_hits r.Serve.jit_misses r.Serve.jit_evictions;
  f "  \"drain_us\": %.6f,\n" r.Serve.drain_us;
  f "  \"throughput_rps\": %.6f,\n" r.Serve.throughput_rps;
  let st = Vino_sim.Stats.create () in
  List.iter (Vino_sim.Stats.add st) (Serve.latencies r);
  f "  \"latency_us\": {\"p50\": %.6f, \"p99\": %.6f, \"p999\": %.6f},\n"
    (Vino_sim.Stats.percentile st 50.)
    (Vino_sim.Stats.percentile st 99.)
    (Vino_sim.Stats.percentile st 99.9);
  f "  \"per_tenant\": [";
  List.iteri
    (fun k (t, fam, served, rejected) ->
      if k > 0 then f ", ";
      f "{\"tenant\": %d, \"family\": %s, \"served\": %d, \"rejected\": %d}" t
        (json_str fam) served rejected)
    r.Serve.per_tenant;
  f "],\n";
  f "  \"samples\": [";
  List.iteri
    (fun k (t, req, lat) ->
      if k > 0 then f ", ";
      f "[%d, %d, %.6f]" t req lat)
    r.Serve.samples;
  f "]\n}\n";
  Buffer.contents b

let serve_print r =
  let cfg = r.Serve.config in
  Printf.printf "serve: %d tenants x %d requests on %d shards (%s path)\n"
    cfg.Serve.tenants cfg.Serve.requests cfg.Serve.shards
    (Serve.path_name cfg.Serve.path);
  Printf.printf "  served %d, rejected %d (audited %d), handler failures %d\n"
    r.Serve.served r.Serve.rejected r.Serve.admission_audited
    r.Serve.handler_failures;
  Printf.printf "  net: %d transmitted, %d quota denials\n" r.Serve.transmitted
    r.Serve.quota_denials;
  Printf.printf "  jit cache: %d hits, %d misses, %d evictions\n"
    r.Serve.jit_hits r.Serve.jit_misses r.Serve.jit_evictions;
  let st = Vino_sim.Stats.create () in
  List.iter (Vino_sim.Stats.add st) (Serve.latencies r);
  Printf.printf "  makespan %.2f us, throughput %.1f req/s\n" r.Serve.drain_us
    r.Serve.throughput_rps;
  Printf.printf "  latency p50 %.2f us, p99 %.2f us, p999 %.2f us\n"
    (Vino_sim.Stats.percentile st 50.)
    (Vino_sim.Stats.percentile st 99.)
    (Vino_sim.Stats.percentile st 99.9);
  Printf.printf "  %-8s %-6s %8s %9s\n" "tenant" "family" "served" "rejected";
  List.iter
    (fun (t, fam, served, rejected) ->
      Printf.printf "  %-8d %-6s %8d %9d\n" t fam served rejected)
    r.Serve.per_tenant

let serve tenants requests interval pause inflight cache reinstall shards path
    seed runaway net_quota json jobs =
  let cfg =
    {
      Serve.tenants;
      requests;
      interval;
      pause;
      max_inflight = inflight;
      jit_cache_cap = cache;
      reinstall_every = reinstall;
      shards;
      path;
      seed;
      runaway;
      net_quota;
    }
  in
  with_pool jobs (fun pool ->
      let r = Serve.run ?pool cfg in
      if json then print_string (serve_json r) else serve_print r)

(* -------------------------------- trace ------------------------------- *)

module Trace = Vino_trace.Trace

(* Drive a stream channel with the xor graft installed: every transfer
   goes through the full Graft_point.invoke path (dispatch, txn, SFI,
   commit), so the profiler sees real sandbox/body/txn buckets. *)
let trace_stream ~transfers () =
  let kernel = Vino_core.Kernel.create ~mem_words:(1 lsl 16) () in
  let chan = Vino_stream.Channel.create kernel ~name:"trace-chan" () in
  let obj =
    Vino_vm.Asm.assemble_exn (Vino_stream.Grafts.xor_encrypt_source ~key:0x5E)
  in
  (match Vino_core.Kernel.seal kernel obj with
  | Error e ->
      Printf.eprintf "seal failed: %s\n" e;
      exit 1
  | Ok image -> (
      match Vino_stream.Channel.install chan ~cred:Vino_core.Cred.root image with
      | Error e ->
          Printf.eprintf "install failed: %s\n" e;
          exit 1
      | Ok () -> ()));
  let data = Array.init Vino_stream.Channel.buffer_words_8kb (fun k -> k) in
  ignore
    (Vino_sim.Engine.spawn kernel.Vino_core.Kernel.engine ~name:"trace-app"
       (fun () ->
         for _ = 1 to transfers do
           ignore
             (Vino_stream.Channel.transfer chan ~cred:Vino_core.Cred.root data)
         done));
  Vino_core.Kernel.run kernel

(* Traced campaigns never fork: a warmed site's JIT translation cache
   survives restore (translations are pure and cost no virtual cycles), so
   forked trials would report different translate/hit trace counters than
   fresh ones. *)
let run_trace_scenario ~transfers ~seed ~count = function
  | "stream" -> trace_stream ~transfers ()
  | "disaster" ->
      ignore (Vino_disaster.Campaign.run ~fork:false ~seed ~count ())
  | "both" ->
      trace_stream ~transfers ();
      ignore (Vino_disaster.Campaign.run ~fork:false ~seed ~count ())
  | other ->
      Printf.eprintf "unknown scenario %S; try stream, disaster or both\n"
        other;
      exit 1

let trace scenario transfers seed count json span_tail mode =
  set_mode mode;
  let sink = Trace.create () in
  Trace.with_t sink (fun () ->
      run_trace_scenario ~transfers ~seed ~count scenario);
  if json then
    print_string (Vino_trace.Json.to_string (Trace.report_json ~scenario sink))
  else Format.printf "%a" (Trace.pp_report ~span_tail) sink

(* -------------------------------- rules ------------------------------- *)

let rules () =
  let entries =
    [
      ( 1,
        "Grafts must be preemptible",
        "sliced execution in Vino_core.Wrapper; Cpu poll points" );
      ( 2,
        "No holding locks / limited resources for excessive periods",
        "Vino_txn.Lock time-outs abort the holder; Rlimit quantity limits" );
      ( 3,
        "No access to memory without permission",
        "MiSFIT Sandbox instructions confine every load/store to the segment"
      );
      ( 4,
        "No calling functions that alter/return protected data",
        "Kcall.register ~callable:false; linker rejects imports" );
      ( 5,
        "No replacing restricted kernel functions",
        "Graft_point ~restricted:true requires privileged credentials" );
      ( 6,
        "Never execute grafts not known to be safe",
        "Image signatures verified by the dynamic linker" );
      ( 7,
        "No calling functions without access",
        "static: linker relocation check; dynamic: Checkcall hash probe" );
      ( 8,
        "Malicious grafts affect only consenting applications",
        "scheduler delegate groups; per-VAS eviction grafts; Cao's principle"
      );
      ( 9,
        "The kernel makes progress despite faulty grafts",
        "transaction abort + undo + forcible graft removal + default fallback"
      );
    ]
  in
  print_endline "Table 1 — rules for grafting, and what enforces them here:";
  List.iter
    (fun (n, rule, how) -> Printf.printf "%d. %-55s %s\n" n rule how)
    entries

(* ------------------------------- points ------------------------------- *)

let points () =
  (* build a demo kernel with one of everything and list its namespace *)
  let kernel = Vino_core.Kernel.create () in
  let disk = Vino_fs.Disk.create kernel.Vino_core.Kernel.engine () in
  let cache = Vino_fs.Cache.create ~capacity:256 () in
  let file =
    Vino_fs.File.openf ~kernel ~cache ~disk ~name:"demo" ~first_block:0
      ~blocks:64 ()
  in
  let vas = Vino_vmem.Vas.create kernel ~name:"demo-vas" () in
  let runq = Vino_sched.Runq.create kernel () in
  let task = Vino_sched.Runq.spawn_task runq ~name:"demo-task" in
  let channel = Vino_stream.Channel.create kernel ~name:"demo-chan" () in
  let httpd = Vino_net.Httpd.create kernel () in
  let ns = Vino_core.Namespace.create () in
  Vino_core.Namespace.register ns
    (Vino_core.Namespace.of_function_point (Vino_fs.File.ra_point file) kernel
       ~shared_words:16 ());
  Vino_core.Namespace.register ns
    (Vino_core.Namespace.of_function_point (Vino_vmem.Vas.evict_point vas)
       kernel ~shared_words:64 ());
  Vino_core.Namespace.register ns
    (Vino_core.Namespace.of_function_point
       (Vino_sched.Runq.delegate_point task)
       kernel ~shared_words:4 ());
  Vino_core.Namespace.register ns
    (Vino_core.Namespace.of_function_point
       (Vino_stream.Channel.point channel)
       kernel ());
  Vino_core.Namespace.register ns
    (Vino_core.Namespace.of_event_point
       (Vino_net.Port.event_point (Vino_net.Httpd.port httpd))
       kernel);
  print_endline "graft points on a demo kernel:";
  List.iter
    (fun name ->
      match Vino_core.Namespace.lookup ns name with
      | Some h ->
          Printf.printf "  %-28s %s%s\n" name
            (match h.Vino_core.Namespace.kind with
            | Vino_core.Namespace.Function_point -> "function"
            | Vino_core.Namespace.Event_point -> "event   ")
            (if h.Vino_core.Namespace.hrestricted then "  [restricted]"
             else "")
      | None -> ())
    (Vino_core.Namespace.names ns)

(* --------------------------------- CLI -------------------------------- *)

let dump name =
  let _, source = source_of name in
  print_string (Vino_vm.Parse.to_string source)

let inspect_cmd =
  let graft =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"GRAFT"
          ~doc:"Builtin graft name or path to a .gasm file.")
  in
  let code =
    Arg.(value & flag & info [ "code" ] ~doc:"Print full disassembly.")
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:"Show a builtin graft before and after MiSFIT rewriting")
    Term.(const inspect $ graft $ code)

let graft_pos =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"GRAFT" ~doc:"Builtin graft name or path to a file.")

let key_arg =
  Arg.(
    value & opt string default_key
    & info [ "key" ] ~doc:"Toolchain signing key.")

let flowcheck_arg =
  Arg.(
    value & flag
    & info [ "flowcheck" ]
        ~doc:
          "Gate on kcall-flow integrity: fail (and refuse to seal) if the \
           graft's kcall-flow graph cannot be resolved statically, i.e. an \
           indirect intra-graft call degraded it to fully permissive.")

let seal_cmd =
  let output =
    Arg.(
      value & opt string "graft.gimg"
      & info [ "o"; "output" ] ~doc:"Output image path.")
  in
  let unsafe =
    Arg.(
      value & flag
      & info [ "unsafe" ] ~doc:"Skip SFI rewriting (measurement only).")
  in
  Cmd.v
    (Cmd.info "seal" ~doc:"Run a graft through MiSFIT and write a .gimg image")
    Term.(const seal $ graft_pos $ output $ key_arg $ unsafe $ flowcheck_arg)

let verify_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"GRAFT"
          ~doc:
            "A .gimg image (signature check), or a builtin graft name / \
             .gasm file (static SFI verification).")
  in
  let words =
    Arg.(
      value & opt int 4096
      & info [ "words" ]
          ~doc:"Minimum segment size the graft will be loaded with.")
  in
  let rewritten =
    Arg.(
      value & flag
      & info [ "rewritten" ]
          ~doc:
            "Treat the input as MiSFIT output (reserved-register use and \
             SFI instructions are legitimate).")
  in
  let seg_regs =
    Arg.(
      value & opt_all int []
      & info [ "seg" ] ~docv:"REG"
          ~doc:
            "Entry fact: register $(docv) holds a pointer to the start of \
             the graft segment (the graft point's marshalling guarantees \
             it). Repeatable.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Check a .gimg image's signature like the linker, or run the \
          static graft verifier over source and print a per-instruction \
          safety report")
    Term.(
      const verify $ path $ key_arg $ words $ rewritten $ seg_regs
      $ flowcheck_arg)

let run_cmd =
  let args =
    Arg.(
      value & opt_all int []
      & info [ "a"; "arg" ] ~doc:"Argument registers r1..r4, in order.")
  in
  let no_stubs =
    Arg.(
      value & flag
      & info [ "no-stub-imports" ]
          ~doc:"Fail on unresolved imports instead of stubbing them.")
  in
  let run name args no_stubs mode =
    set_mode mode;
    run_graft name args (not no_stubs)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run a graft in a sandbox kernel (transaction, SFI, budget) and \
          report the outcome")
    Term.(const run $ graft_pos $ args $ no_stubs $ mode_arg)

let dump_cmd =
  let graft =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"GRAFT"
          ~doc:"Builtin graft name or path to a .gasm file.")
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Emit a graft's source in the .gasm text format")
    Term.(const dump $ graft)

let tables_cmd =
  let which =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"TABLE"
          ~doc:"table3..table7, abortmodel or lockfactor; all when omitted.")
  in
  let iterations =
    Arg.(
      value & opt int 120
      & info [ "iterations"; "n" ] ~doc:"Samples per measurement.")
  in
  let run iterations which mode =
    if iterations < 1 then begin
      Printf.eprintf "tables: --iterations must be at least 1\n";
      exit 2
    end;
    set_mode mode;
    match which with
    | Some t -> run_table iterations t
    | None -> List.iter (run_table iterations) all_tables
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"Regenerate the paper's evaluation tables")
    Term.(const run $ iterations $ which $ mode_arg)

let disaster_cmd =
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Campaign seed.")
  in
  let count =
    Arg.(
      value & opt int 40
      & info [ "count"; "n" ]
          ~doc:
            "Number of injections. 40 covers every (family, injector) \
             combination.")
  in
  let costs =
    Arg.(
      value & flag
      & info [ "costs" ]
          ~doc:"Also print the per-fault-class recovery cost table.")
  in
  let fork =
    Arg.(
      value
      & vflag true
          [
            ( true,
              info [ "fork" ]
                ~doc:
                  "Fork each trial from a per-domain warmed kernel snapshot \
                   (default)." );
            ( false,
              info [ "no-fork" ]
                ~doc:
                  "Build a fresh site per trial; the report is \
                   byte-identical either way." );
          ])
  in
  let recheck =
    Arg.(
      value & opt int 1
      & info [ "recheck" ]
          ~doc:
            "Re-run every Nth trial with the same seed and flag differing \
             fingerprints as nondeterminism (default 1: every trial; 0 \
             disables).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the campaign report as JSON.")
  in
  Cmd.v
    (Cmd.info "disaster"
       ~doc:
         "Run a seeded fault-injection campaign — misbehaving grafts across \
          every graft-point family — and check the post-recovery invariants \
          (exit 1 on any violation)")
    Term.(
      const disaster $ seed $ count $ costs $ jobs_arg $ mode_arg $ fork
      $ recheck $ json)

let serve_cmd =
  let d = Serve.default in
  let opt_int name dflt doc =
    Arg.(value & opt int dflt & info [ name ] ~doc)
  in
  let tenants = opt_int "tenants" d.Serve.tenants "Tenant count." in
  let requests =
    opt_int "requests" d.Serve.requests "Arrivals per tenant."
  in
  let interval =
    opt_int "interval" d.Serve.interval
      "Cycles between a tenant's arrivals (open loop)."
  in
  let pause =
    opt_int "pause" d.Serve.pause
      "Extra idle cycles after each reinstall burst."
  in
  let inflight =
    opt_int "inflight" d.Serve.max_inflight
      "Per-tenant admission cap (arrivals beyond it are shed and audited)."
  in
  let cache =
    opt_int "cache" d.Serve.jit_cache_cap
      "Per-shard-kernel translation cache capacity (LRU)."
  in
  let reinstall =
    opt_int "reinstall" d.Serve.reinstall_every
      "Reinstall a tenant's handler every k-th arrival (0 = never)."
  in
  let shards =
    opt_int "shards" d.Serve.shards
      "Shard count — part of the workload definition, not the $(b,-j) level."
  in
  let path =
    let path_conv =
      Arg.enum
        (List.map (fun p -> (Serve.path_name p, p)) Serve.all_paths)
    in
    Arg.(
      value
      & opt path_conv d.Serve.path
      & info [ "path" ] ~docv:"PATH"
          ~doc:
            "Execution path for every tenant handler: $(b,interp), \
             $(b,translated) or $(b,verified-translated).")
  in
  let seed = opt_int "seed" d.Serve.seed "Per-tenant work perturbation." in
  let runaway =
    Arg.(
      value
      & opt (some int) None
      & info [ "runaway" ] ~docv:"TENANT"
          ~doc:
            "Turn tenant $(docv) into a net.send flooder, capped by its \
             inherited packet slice.")
  in
  let net_quota =
    opt_int "net-quota" d.Serve.net_quota "Per-tenant Net_packets slice."
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the full report as stable JSON (byte-identical at any \
             $(b,-j) level).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the multi-tenant graft server: N tenants' event grafts under \
          open-loop traffic, with admission control, inherited resource \
          limits and a bounded translation cache; report throughput and \
          latency percentiles")
    Term.(
      const serve $ tenants $ requests $ interval $ pause $ inflight $ cache
      $ reinstall $ shards $ path $ seed $ runaway $ net_quota $ json
      $ jobs_arg)

let trace_cmd =
  let scenario =
    Arg.(
      value
      & pos 0 string "stream"
      & info [] ~docv:"SCENARIO"
          ~doc:
            "What to trace: $(b,stream) (xor graft on a channel), \
             $(b,disaster) (seeded fault-injection campaign) or $(b,both).")
  in
  let transfers =
    Arg.(
      value & opt int 25
      & info [ "transfers" ] ~doc:"Stream transfers to drive.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Disaster campaign seed.")
  in
  let count =
    Arg.(
      value & opt int 40
      & info [ "count" ] ~doc:"Disaster campaign injections.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the vino-trace-v1 JSON report.")
  in
  let span_tail =
    Arg.(
      value & opt int 20
      & info [ "spans" ] ~doc:"Trace spans to print (newest last).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a scenario under the observability sink and report the \
          per-graft cycle profile (sandbox/body/txn/undo buckets), the \
          kernel counters and the span tail")
    Term.(
      const trace $ scenario $ transfers $ seed $ count $ json $ span_tail
      $ mode_arg)

let rules_cmd =
  Cmd.v
    (Cmd.info "rules" ~doc:"Print Table 1 and what enforces each rule")
    Term.(const rules $ const ())

let points_cmd =
  Cmd.v
    (Cmd.info "points" ~doc:"List the graft points of a demo kernel")
    Term.(const points $ const ())

let main_cmd =
  let doc = "the simulated VINO extensible kernel" in
  let info = Cmd.info "vino" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      inspect_cmd; dump_cmd; seal_cmd; verify_cmd; run_cmd; tables_cmd;
      disaster_cmd; serve_cmd; trace_cmd; rules_cmd; points_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
