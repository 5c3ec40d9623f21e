(* The benchmark's four workloads, each driven as library calls on one
   domain with no domain pool. A workload runs fixed-size batches; every
   batch's simulated results are digested and checked against a
   reference, and a separate traced pass splits host time into the
   layer rows of the ledger. *)

module Asm = Vino_vm.Asm
module Insn = Vino_vm.Insn
module Cpu = Vino_vm.Cpu
module Mem = Vino_vm.Mem
module Costs = Vino_vm.Costs
module Stats = Vino_sim.Stats
module Kernel = Vino_core.Kernel
module Kcall = Vino_core.Kcall
module Linker = Vino_core.Linker
module Engine = Vino_sim.Engine
module Txn = Vino_txn.Txn
module Lock = Vino_txn.Lock
module Audit = Vino_core.Audit
module Serve = Vino_net.Serve
module Campaign = Vino_disaster.Campaign
module Site = Vino_disaster.Site
module Injector = Vino_disaster.Injector
module Invariant = Vino_disaster.Invariant
module Seed = Vino_disaster.Seed
module Trace = Vino_trace.Trace
module Json = Vino_trace.Json
module Ledger = Hostbench.Ledger

type batch = {
  units : int;
  fails : int;  (** units counted by the workload's fail ratio *)
  digest : string;  (** of the batch's simulated results *)
  virt : Stats.t;  (** simulated microseconds per unit *)
  errors : string list;  (** broken run-level assertions *)
}

(* A traced batch and its untraced twin: the same batch index run just
   before it with no sink, so the tracing overhead is measured on a
   pair close in time. *)
type pair = {
  k : int;
  traced_b : batch;
  traced_ns : float;
  twin : batch;
  twin_ns : float;
}

type traced = {
  batches : pair list;
  sink : Trace.t;  (** counters over every traced batch *)
  rows : Ledger.row list;  (** layer rows, ns over every traced batch *)
  derived : (string * float) list;  (** per-layer metrics, per batch *)
  checks : string list;  (** fidelity notes printed with the ledger *)
  mismatches : string list;  (** fidelity checks that failed *)
}

type t = {
  name : string;
  unit_name : string;
  setup : unit -> unit;  (** one set-up; timed several times *)
  batch : int -> batch;  (** batch [k] of the run; [-1] is the warm-up *)
  reference : int -> (string, string) result;
      (** the digest batch [k] must reproduce *)
  canary : unit -> string list;
      (** a fixed run checked against recorded results: its errors *)
  traced : int list -> traced;
  paper_us : float option;
      (** the paper's figure for [virt_us.p50]; [None]: unvalidated *)
}

let digest_of lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

let stats_of xs =
  let st = Stats.create () in
  List.iter (Stats.add st) xs;
  st

(* ---------------------------------------------------------------- spans *)

(* Spans from the benchmark's own files, around the calls into each
   layer: name, start, end (host ns), parent, and the minor words
   allocated inside. Kept in memory; written out when the run ends. *)
type span = {
  id : int;
  sname : string;
  start : float;
  stop : float;
  parent : int;
  words : float;
}

let spans = ref []
let n_spans = ref 0
let open_span = ref (-1)
let recording = ref false

let span sname f =
  if not !recording then f ()
  else begin
    let id = !n_spans in
    incr n_spans;
    let parent = !open_span in
    open_span := id;
    let w0 = Gc.minor_words () in
    let start = Probes.now_ns () in
    let v = Fun.protect ~finally:(fun () -> open_span := parent) f in
    let stop = Probes.now_ns () in
    spans :=
      { id; sname; start; stop; parent; words = Gc.minor_words () -. w0 }
      :: !spans;
    v
  end

let span_totals names =
  List.fold_left
    (fun (ns, n, w) s ->
      if List.mem s.sname names then
        (ns +. (s.stop -. s.start), n + 1, w +. s.words)
      else (ns, n, w))
    (0., 0, 0.) !spans

(* (name, count, total ns) for every span name, in first-seen order *)
let span_summary () =
  let names =
    List.fold_left
      (fun acc s -> if List.mem s.sname acc then acc else s.sname :: acc)
      [] !spans
  in
  List.map
    (fun name ->
      let ns, n, _ = span_totals [ name ] in
      (name, n, ns))
    names

let write_spans path =
  let all = List.rev !spans in
  let origin = match all with [] -> 0. | s :: _ -> s.start in
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"id\": %d, \"name\": %S, \"start_ns\": %.0f, \"end_ns\": %.0f, \
         \"parent\": %d}\n"
        (if i = 0 then "" else ",")
        s.id s.sname (s.start -. origin) (s.stop -. origin) s.parent)
    all;
  output_string oc "]\n";
  close_out oc

(* Run [ks] under one sink, each batch timed and wrapped in a span,
   each after its untraced twin. *)
let traced_batches sink ~twin ~traced ks =
  List.map
    (fun k ->
      let twin, twin_ns = Probes.timed_clean (fun () -> twin k) in
      let traced_b, traced_ns =
        Probes.timed_clean (fun () ->
            span "batch" (fun () -> Trace.with_t sink (fun () -> traced k)))
      in
      { k; traced_b; traced_ns; twin; twin_ns })
    ks

let counter sink name = float_of_int (Trace.counter_value sink name)

(* Shared kernel-path probes: engine, txn, kcall. *)
type path_costs = {
  engine : Probes.engine_costs;
  txn : Probes.txn_costs;
  ns_kcall : float;
}

let path_costs () =
  span "probes.path" (fun () ->
      let engine = span "probe.engine" Probes.engine_costs in
      let txn = span "probe.txn" (fun () -> Probes.txn_costs ~engine) in
      let ns_kcall = span "probe.kcall" Probes.kcall_ns in
      { engine; txn; ns_kcall })

let engine_ns count pc =
  Probes.engine_ns pc.engine
    ~events:(int_of_float (count "sim.events_executed"))
    ~spawns:(int_of_float (count "sim.procs_spawned"))

(* Rows every workload prices from counts the same way. *)
let kernel_rows count pc =
  let t = pc.txn in
  [
    ("engine", engine_ns count pc);
    ( "txn",
      (count "txn.commits" *. t.commit_pair)
      +. (count "txn.aborts" *. t.abort_pair)
      +. (count "lock.acquisitions" *. t.lock) );
    ( "undo",
      (count "undo.pushes" *. t.push) +. (count "undo.replays" *. t.replay) );
  ]

let rows_of assoc =
  List.map (fun (layer, ns) -> { Ledger.layer; ns = int_of_float ns }) assoc

let kernel_derived count pc =
  [
    ("engine.ns_per_event", engine_ns count pc /. count "sim.events_executed");
    ("txn.ns_per_begin", pc.txn.commit_pair);
    ("undo.ns_per_replay", pc.txn.replay);
  ]

(* ---------------------------------------------------------------- serve *)

(* The tenant handlers [Serve.run] installs, rebuilt here from the same
   recipe so the layer probes run the workload's own programs. The
   traced run checks the copy: its sandbox cycles per request must sum
   to the [sfi.sandbox_cycles] the served batches recorded. *)
let families = 4
let work_of ~seed tenant = 40 + (8 * (((tenant * 7) + seed) mod 9))

let tenant_source ~tenant : Asm.item list =
  let prologue : Asm.item list =
    [
      Li (Asm.r13, tenant);
      Ld (Asm.r3, Asm.r1, 0);
      Ld (Asm.r4, Asm.r1, 1);
      Ld (Asm.r11, Asm.r1, 2);
      Ld (Asm.r5, Asm.r1, 3);
      Mov (Asm.r6, Asm.r1);
      Mov (Asm.r1, Asm.r4);
      Kcall "serve.acquire";
    ]
  in
  let loop (body : Asm.item list) : Asm.item list =
    [ Asm.Li (Asm.r7, 0); Asm.Li (Asm.r8, 0); Asm.Label "loop" ] @ body
  in
  let body : Asm.item list =
    match tenant mod families with
    | 0 ->
        loop
          [
            Br (Insn.Ge, Asm.r7, Asm.r5, "done");
            Ld (Asm.r9, Asm.r6, 2);
            Alu (Insn.Add, Asm.r8, Asm.r8, Asm.r9);
            Alui (Insn.Add, Asm.r7, Asm.r7, 1);
            Jmp "loop";
            Label "done";
          ]
    | 1 ->
        loop
          [
            Br (Insn.Ge, Asm.r7, Asm.r5, "done");
            Ld (Asm.r9, Asm.r6, 3);
            Br (Insn.Le, Asm.r9, Asm.r8, "skip");
            Mov (Asm.r8, Asm.r9);
            Label "skip";
            Alui (Insn.Add, Asm.r7, Asm.r7, 2);
            Jmp "loop";
            Label "done";
          ]
    | 2 ->
        [
          Mov (Asm.r7, Asm.r5);
          Li (Asm.r8, 1);
          Li (Asm.r9, 0);
          Label "loop";
          Br (Insn.Le, Asm.r7, Asm.r9, "done");
          Ld (Asm.r10, Asm.r6, 1);
          Alu (Insn.Add, Asm.r8, Asm.r8, Asm.r10);
          Alui (Insn.Sub, Asm.r7, Asm.r7, 1);
          Jmp "loop";
          Label "done";
        ]
    | _ ->
        ([
           Ld (Asm.r7, Asm.r6, 2);
           Alui (Insn.And, Asm.r8, Asm.r7, 1);
           Li (Asm.r9, 0);
           Br (Insn.Eq, Asm.r8, Asm.r9, "even");
           Alui (Insn.Add, Asm.r5, Asm.r5, 8);
           Label "even";
         ]
          : Asm.item list)
        @ loop
            [
              Br (Insn.Ge, Asm.r7, Asm.r5, "done");
              Ld (Asm.r9, Asm.r6, 0);
              Alu (Insn.Xor, Asm.r8, Asm.r8, Asm.r9);
              Alui (Insn.Add, Asm.r7, Asm.r7, 1);
              Jmp "loop";
              Label "done";
            ]
  in
  prologue @ body
  @ [
      Mov (Asm.r1, Asm.r4);
      Mov (Asm.r2, Asm.r3);
      Mov (Asm.r3, Asm.r11);
      Kcall "serve.done";
      Li (Asm.r0, 0);
      Ret;
    ]

let serve_config ~churn ~seed =
  {
    Serve.default with
    tenants = 16;
    requests = (if churn then 400 else 4000);
    jit_cache_cap = (if churn then 2 else 256);
    reinstall_every = (if churn then 6 else 0);
    seed;
  }

(* served/rejected/jit counts and the sorted (tenant, request, latency)
   samples, latencies at the CLI's own [%.6f] *)
let serve_digest ~served ~rejected ~hits ~misses ~evictions samples =
  digest_of
    (Printf.sprintf "served=%d rejected=%d jit=%d/%d/%d" served rejected hits
       misses evictions
    :: List.map (fun (t, r, us) -> Printf.sprintf "%d %d %.6f" t r us) samples)

let serve_batch cfg =
  let r = Serve.run cfg in
  let arrivals = cfg.Serve.tenants * cfg.Serve.requests in
  let errors =
    (if r.Serve.served + r.Serve.rejected <> arrivals then
       [
         Printf.sprintf "served %d + rejected %d <> %d arrivals" r.Serve.served
           r.Serve.rejected arrivals;
       ]
     else [])
    @
    if r.Serve.admission_audited <> r.Serve.rejected then
      [
        Printf.sprintf "admission audited %d <> rejected %d"
          r.Serve.admission_audited r.Serve.rejected;
      ]
    else []
  in
  ( r,
    {
      units = arrivals;
      fails = r.Serve.rejected + r.Serve.handler_failures;
      digest =
        serve_digest ~served:r.Serve.served ~rejected:r.Serve.rejected
          ~hits:r.Serve.jit_hits ~misses:r.Serve.jit_misses
          ~evictions:r.Serve.jit_evictions r.Serve.samples;
      virt = stats_of (Serve.latencies r);
      errors;
    } )

(* Recorded results of a fixed serve run, 16 x 200 at seed 42 (the CLI's
   default): its digest,
   jit hits/misses/evictions and virtual p50/p99 latency. The CLI and
   the library run call the same [Serve.run], so only a recorded result
   catches a change that moves both. *)
type recorded = {
  digest : string;
  jit : int * int * int;
  p50 : string;
  p99 : string;
}

let churn_canary =
  {
    digest = "e55d23abb06a24c846b27445bb0b80ea";
    jit = (0, 544, 536);
    p50 = "109.06";
    p99 = "113.77";
  }

let steady_canary =
  {
    digest = "568ea939c7552c51f49259ced1130ccf";
    jit = (0, 16, 0);
    p50 = "109.06";
    p99 = "113.77";
  }

let serve_canary ~churn () =
  let cfg = { (serve_config ~churn ~seed:42) with requests = 200 } in
  let r, b = serve_batch cfg in
  let pct p = Printf.sprintf "%.2f" (Stats.percentile b.virt p) in
  let got =
    {
      digest = b.digest;
      jit = (r.Serve.jit_hits, r.Serve.jit_misses, r.Serve.jit_evictions);
      p50 = pct 50.;
      p99 = pct 99.;
    }
  in
  let show c =
    let h, m, e = c.jit in
    Printf.sprintf "jit %d/%d/%d, virt p50 %s p99 %s us, digest %s" h m e
      c.p50 c.p99 c.digest
  in
  let want = if churn then churn_canary else steady_canary in
  Printf.printf "canary: serve 16x200 seed 42 %s\n" (show got);
  b.errors
  @
  if got = want then []
  else [ Printf.sprintf "serve canary: %s, recorded %s" (show got) (show want) ]

(* The shipped CLI on the same config is the serve reference: its JSON
   report must digest to exactly what the library calls produced. *)
let cli_reference ~vino ~churn cfg =
  let args =
    [
      vino;
      "serve";
      "--tenants";
      string_of_int cfg.Serve.tenants;
      "--requests";
      string_of_int cfg.Serve.requests;
      "--seed";
      string_of_int cfg.Serve.seed;
      "-j";
      "1";
      "--json";
    ]
    @ if churn then [] else [ "--cache"; "256"; "--reinstall"; "0" ]
  in
  let ic = Unix.open_process_args_in vino (Array.of_list args) in
  let text = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> (
      let ( let* ) = Result.bind in
      let* j = Json.of_string text in
      let int_at path =
        let rec go j = function
          | [] -> Json.int_value j
          | k :: rest -> Option.bind (Json.member k j) (fun v -> go v rest)
        in
        match go j path with
        | Some v -> Ok v
        | None -> Error ("vino serve --json: no " ^ String.concat "." path)
      in
      let num = function
        | Json.Float f -> f
        | Json.Int i -> float_of_int i
        | _ -> nan
      in
      let* served = int_at [ "served" ] in
      let* rejected = int_at [ "rejected" ] in
      let* hits = int_at [ "jit"; "hits" ] in
      let* misses = int_at [ "jit"; "misses" ] in
      let* evictions = int_at [ "jit"; "evictions" ] in
      let samples =
        match Json.member "samples" j with
        | None -> []
        | Some l ->
            List.map
              (fun s ->
                match Json.to_list s with
                | [ t; r; us ] ->
                    ( Option.value ~default:(-1) (Json.int_value t),
                      Option.value ~default:(-1) (Json.int_value r),
                      num us )
                | _ -> (-1, -1, nan))
              (Json.to_list l)
      in
      let lat key =
        Option.bind (Json.member "latency_us" j) (Json.member key)
        |> Option.map num
      in
      Printf.printf
        "cross-check: vino serve -j 1 (seed %d) jit %d hits / %d misses / %d \
         evictions, virt p50 %s p99 %s us\n"
        cfg.Serve.seed hits misses evictions
        (Option.fold ~none:"?" ~some:(Printf.sprintf "%.2f") (lat "p50"))
        (Option.fold ~none:"?" ~some:(Printf.sprintf "%.2f") (lat "p99"));
      Ok (serve_digest ~served ~rejected ~hits ~misses ~evictions samples))
  | _ -> Error "vino serve exited with an error"

let serve ~churn ~seed ~vino =
  let cfg = serve_config ~churn ~seed:(seed land 0x3FFF_FFFF) in
  let reference =
    lazy
      (match vino with
      | None -> Error "no --vino executable given for the serve reference"
      | Some vino -> cli_reference ~vino ~churn cfg)
  in
  let batch _ = snd (serve_batch cfg) in
  let traced ks =
    let sink = Trace.create () in
    let reports = ref [] in
    let batches =
      traced_batches sink ~twin:batch
        ~traced:(fun _ ->
          let r, b = serve_batch cfg in
          reports := r :: !reports;
          b)
        ks
    in
    let nb = float_of_int (List.length ks) in
    let pc = path_costs () in
    let k =
      Kernel.create ~mem_words:(1 lsl 17) ~jit_cache_cap:256 ()
    in
    List.iter
      (fun name -> ignore (Kernel.register_kcall k ~name (fun _ -> Kcall.ok)))
      [ "serve.acquire"; "serve.done" ];
    let sources =
      List.init cfg.Serve.tenants (fun t -> tenant_source ~tenant:t)
    in
    let images =
      List.map (fun s -> Probes.seal_exn k (Asm.assemble_exn s)) sources
    in
    let words = 16 + 16 + 256 in
    let ns_tool =
      span "probe.toolchain" (fun () -> Probes.toolchain_ns k sources)
    in
    let link =
      span "probe.link" (fun () -> Probes.link_costs k ~words images)
    in
    (* one entry state per request, in the workload's own order *)
    let vms =
      span "probe.vm" (fun () ->
          List.mapi
            (fun tenant img ->
              let loaded = Probes.load_exn k ~words img in
              let seg = loaded.Linker.seg in
              let setups =
                List.init cfg.Serve.requests (fun r ->
                    let payload =
                      [| 0; tenant; r; work_of ~seed:cfg.Serve.seed tenant |]
                    in
                    fun cpu ->
                      Mem.blit_in k.Kernel.mem seg.Mem.base payload;
                      Cpu.set_reg cpu 1 seg.Mem.base;
                      Cpu.set_reg cpu 2 (Array.length payload))
              in
              (tenant, Probes.vm_costs k loaded setups))
            images)
    in
    let ns_dispatch =
      span "probe.dispatch" (fun () ->
          Probes.event_dispatch_ns ~engine:pc.engine ~txn:pc.txn)
    in
    let served_by = Hashtbl.create 16 in
    List.iter
      (fun r ->
        List.iter
          (fun (t, _, served, _) ->
            Hashtbl.replace served_by t
              (served + Option.value ~default:0 (Hashtbl.find_opt served_by t)))
          r.Serve.per_tenant)
      !reports;
    let served t =
      float_of_int (Option.value ~default:0 (Hashtbl.find_opt served_by t))
    in
    let sum f =
      List.fold_left (fun acc (t, v) -> acc +. (served t *. f v)) 0. vms
    in
    let vm_ns = sum (fun v -> v.Probes.ns_per_run)
    and insns = sum (fun v -> v.Probes.insns)
    and sandbox = sum (fun v -> v.Probes.sandbox) in
    let dispatched =
      List.fold_left
        (fun acc r -> acc + r.Serve.served + r.Serve.handler_failures)
        0 !reports
      |> float_of_int
    in
    let c = counter sink in
    (* every handler makes two kernel calls: serve.acquire, serve.done *)
    let kcalls = 2. *. dispatched in
    let rows =
      rows_of
        ([
           ("toolchain", nb *. float_of_int cfg.Serve.tenants *. ns_tool);
           ( "link",
             (c "jit.misses" *. link.Probes.miss)
             +. (c "jit.hits" *. link.hit) );
           ("dispatch", dispatched *. ns_dispatch);
           ("vm", vm_ns);
           ("kcall", kcalls *. pc.ns_kcall);
         ]
        @ kernel_rows (counter sink) pc)
    in
    let traced_sandbox = c "sfi.sandbox_cycles" in
    let replica =
      Printf.sprintf
        "vm replica: %.0f sandbox cycles over the served requests, traced \
         sfi.sandbox_cycles %.0f"
        sandbox traced_sandbox
    in
    {
      batches;
      sink;
      rows;
      derived =
        kernel_derived (counter sink) pc
        @ [
            ("toolchain.calls", float_of_int cfg.Serve.tenants);
            ("toolchain.ns_per_call", ns_tool);
            ("link.ns_per_miss", link.miss);
            ("link.words_per_miss", link.words_per_miss);
            ("dispatch.calls", dispatched /. nb);
            ("dispatch.ns_per_call", ns_dispatch);
            ("vm.insns", insns /. nb);
            ("vm.ns_per_insn", vm_ns /. insns);
            ("kcall.calls", kcalls /. nb);
            ("kcall.ns_per_call", pc.ns_kcall);
          ];
      checks = [ replica ];
      mismatches = (if sandbox = traced_sandbox then [] else [ replica ]);
    }
  in
  {
    name = (if churn then "serve-churn" else "serve-steady");
    unit_name = "request";
    (* kernel construction, every tenant's first seal and translate, one
       request each *)
    setup = (fun () -> ignore (Serve.run { cfg with requests = 1 }));
    batch;
    reference = (fun _ -> Lazy.force reference);
    canary = serve_canary ~churn;
    traced;
    paper_us = None;
  }

(* ------------------------------------------------------------- campaign *)

let trials = 400

(* A fresh campaign seed per batch: forked sites keep their translation
   cache across restores, so a repeated seed would turn misses into
   hits. *)
let batch_seed ~seed k = Seed.bits (Seed.derive ~seed (k + 1))

let campaign_digest (rep : Campaign.report) =
  digest_of
    (Printf.sprintf "ok=%b" (Campaign.ok rep)
    :: List.map
         (fun (r : Campaign.record) ->
           Printf.sprintf "%d %d %s" r.index r.vtime r.fingerprint)
         rep.records)

let campaign_batch (rep : Campaign.report) =
  {
    units = rep.count;
    fails =
      List.length
        (List.filter
           (fun (r : Campaign.record) -> r.violations <> [])
           rep.records);
    digest = campaign_digest rep;
    virt =
      stats_of
        (List.map
           (fun (r : Campaign.record) -> Costs.us_of_cycles r.vtime)
           rep.records);
    errors = [];
  }

(* [Campaign]'s expectation check and fingerprint, which it keeps
   private. A drift between these copies and the originals shows up as a
   reference digest mismatch on every batch. *)
let expectation_violation ~expect ~observed =
  match (expect, observed) with
  | Injector.Rejected, Injector.Rejected
  | Injector.Recovered, Injector.Recovered
  | Injector.Contained, (Injector.Contained | Injector.Recovered) ->
      []
  | _ ->
      [
        Printf.sprintf "expected %s, observed %s"
          (Injector.expectation_name expect)
          (Injector.expectation_name observed);
      ]

let fingerprint (site : Site.t) ~note ~observed =
  let engine = site.kernel.Kernel.engine in
  let mgr = site.kernel.Kernel.txn_mgr in
  Printf.sprintf "[%s] %s now=%d txn=%d/%d/%d undo=%d/%d lock=%d/%d/%d audit=%d"
    note
    (Injector.expectation_name observed)
    (Engine.now engine) (Txn.begins mgr) (Txn.commits mgr) (Txn.aborts mgr)
    (Txn.undo_failures mgr) (Txn.deferred_failures mgr)
    (Lock.acquisitions site.rig_lock)
    (Lock.timeouts_fired site.rig_lock)
    (Lock.holder_aborts_requested site.rig_lock)
    (Audit.count site.kernel.Kernel.audit)

let inner_counters =
  [
    "sim.events_executed";
    "sim.procs_spawned";
    "graft.invocations";
    "txn.commits";
    "txn.aborts";
    "lock.acquisitions";
    "undo.pushes";
    "undo.replays";
  ]

(* One trial, driven step by step through the public API exactly as
   [Campaign.run] drives it, with a span around each step. [inner]
   accumulates the counters that move inside the engine run. *)
let drive_trial sites sink inner ~seed index =
  let family, kind = Campaign.combo index in
  let site, snap = List.assoc family sites in
  span "Kernel.restore" (fun () -> Kernel.restore site.Site.kernel snap);
  Kernel.set_strategy site.Site.kernel Kernel.Txn_undo;
  let rng = Seed.derive ~seed index in
  let variant =
    span "Injector.apply" (fun () ->
        let v = Injector.apply kind ~rng ~rig:site.rig site.healthy in
        Option.iter (Site.pin_flow_witness site) v.Injector.flow_witness;
        v)
  in
  let install_result =
    match span "Asm.assemble" (fun () -> Asm.assemble variant.source) with
    | Error e -> Error e
    | Ok obj -> (
        match span "Kernel.seal" (fun () -> Kernel.seal site.kernel obj) with
        | Error e -> Error e
        | Ok image -> span "site.install" (fun () -> site.install image))
  in
  let before = List.map (Trace.counter_value sink) inner_counters in
  let observed =
    span "site.run" (fun () ->
        match install_result with
        | Error _ ->
            site.drive ();
            Kernel.run site.kernel;
            Injector.Rejected
        | Ok () ->
            site.drive ();
            if variant.wants_contender then
              Site.spawn_contender site ~delay:(4_000 + Seed.int rng 4_000);
            Kernel.run site.kernel;
            if site.grafted () then Injector.Contained else Injector.Recovered)
  in
  List.iteri
    (fun i (name, b) ->
      inner.(i) <- inner.(i) + Trace.counter_value sink name - b)
    (List.combine inner_counters before);
  span "site.force_remove" (fun () -> site.force_remove ());
  (* [Campaign] evaluates these right to left: the default-path check
     drives the engine before the invariants read the site *)
  let default =
    span "site.check_default" (fun () ->
        match site.check_default () with Ok () -> [] | Error e -> [ e ])
  in
  let expect = expectation_violation ~expect:variant.expect ~observed in
  let posts =
    span "Invariant.check_posts" (fun () ->
        Invariant.check_posts site variant.posts)
  in
  let segments =
    span "Invariant.check_segments_restored" (fun () ->
        Invariant.check_segments_restored site)
  in
  let universal =
    span "Invariant.check_universal" (fun () -> Invariant.check_universal site)
  in
  {
    Campaign.index;
    family;
    kind;
    note = variant.note;
    expect = variant.expect;
    observed;
    violations = universal @ segments @ posts @ expect @ default;
    fingerprint = fingerprint site ~note:variant.note ~observed;
    vtime = Engine.now site.kernel.Kernel.engine;
  }

let warmed_sites ?jit_cache_cap () =
  List.map
    (fun f ->
      let site = Site.create f in
      Option.iter (Kernel.set_jit_cache_cap site.Site.kernel) jit_cache_cap;
      (f, (site, Kernel.snapshot site.Site.kernel)))
    Site.all_families

(* [trials] trials of campaign [seed] driven step by step on [sites]:
   with [recheck], each trial runs twice and differing fingerprints are a
   violation, as in [Campaign.run]. *)
let drive_campaign sites sink inner ~recheck ~seed =
  let records =
    List.init trials (fun index ->
        let r1 = drive_trial sites sink inner ~seed index in
        if not recheck then r1
        else
          let r2 = drive_trial sites sink inner ~seed index in
          if String.equal r1.Campaign.fingerprint r2.Campaign.fingerprint then
            r1
          else
            {
              r1 with
              violations =
                r1.violations
                @ [
                    Printf.sprintf "nondeterministic: re-run gave %S, first %S"
                      r2.fingerprint r1.fingerprint;
                  ];
            })
  in
  { Campaign.seed; count = trials; records }

(* The digest of the forked 400-trial campaign at seed 1, recorded: the
   step-by-step replica calls the same kernel, site, injector and
   invariant code as [Campaign.run], so only a recorded result catches a
   change that moves both. *)
let campaign_canary = "e65089f9f832180ad0036a2295da847a"

let check_campaign_canary () =
  let b = campaign_batch (Campaign.run ~seed:1 ~count:trials ()) in
  Printf.printf "canary: campaign %d trials seed 1, %d failing, digest %s\n"
    trials b.fails b.digest;
  if String.equal b.digest campaign_canary then []
  else
    [
      Printf.sprintf "campaign canary: digest %s, recorded %s" b.digest
        campaign_canary;
    ]

let campaign ~seed =
  let batch k =
    campaign_batch (Campaign.run ~seed:(batch_seed ~seed k) ~count:trials ())
  in
  (* The reference drives the same trials step by step on sites of its
     own, so every batch checks [Campaign.run] against an independent
     replica on one domain. The traced pass drives the same sites. Their
     translation caches are capped low to bound memory: translations
     cost no virtual cycles, and on a fresh seed almost every variant
     misses at any cap. *)
  let replica = lazy (warmed_sites ~jit_cache_cap:32 ()) in
  let no_sink = Trace.create ~span_capacity:1 () in
  let scratch = Array.make (List.length inner_counters) 0 in
  let reference k =
    (* the heap outgrows the collector across back-to-back batches, as
       in the timed loop *)
    Gc.compact ();
    Ok
      (campaign_digest
         (drive_campaign (Lazy.force replica) no_sink scratch ~recheck:false
            ~seed:(batch_seed ~seed k)))
  in
  let traced ks =
    let sink = Trace.create () in
    ignore (span "Site.create" warmed_sites);
    let sites = Lazy.force replica in
    let inner = Array.make (List.length inner_counters) 0 in
    let drive k =
      campaign_batch
        (drive_campaign sites sink inner ~recheck:true
           ~seed:(batch_seed ~seed k))
    in
    let batches = traced_batches sink ~twin:batch ~traced:drive ks in
    let nb = float_of_int (List.length ks) in
    let pc = path_costs () in
    let ns_dispatch =
      span "probe.dispatch" (fun () ->
          Probes.graft_point_dispatch_ns ~engine:pc.engine ~txn:pc.txn)
    in
    (* counts that moved inside the trials' engine runs *)
    let inside name =
      List.combine inner_counters (Array.to_list inner)
      |> List.assoc_opt name
      |> Option.fold ~none:0. ~some:float_of_int
    in
    let total names = let ns, _, _ = span_totals names in ns in
    let invariant_spans =
      [
        "site.check_default";
        "Invariant.check_posts";
        "Invariant.check_segments_restored";
        "Invariant.check_universal";
      ]
    in
    let restore_ns, restores, _ = span_totals [ "Kernel.restore" ] in
    let tool_ns, _, _ = span_totals [ "Asm.assemble"; "Kernel.seal" ] in
    let _, assembles, _ = span_totals [ "Asm.assemble" ] in
    let link_ns, _, link_words =
      span_totals [ "site.install"; "site.force_remove" ]
    in
    let injector_ns = total [ "Injector.apply" ] in
    let invariant_ns = total invariant_spans in
    let c = counter sink in
    let misses = Float.max 1. (c "jit.misses") in
    let units = nb *. float_of_int trials in
    let create_ns, _, _ = span_totals [ "Site.create" ] in
    let rows =
      rows_of
        ([
           ("snapshot", restore_ns);
           ("disaster", injector_ns +. invariant_ns);
           ("toolchain", tool_ns);
           ("link", link_ns);
           ("dispatch", inside "graft.invocations" *. ns_dispatch);
         ]
        @ kernel_rows inside pc)
    in
    let run_ns = total [ "site.run" ] in
    let priced =
      List.fold_left
        (fun acc r ->
          if List.mem r.Ledger.layer [ "dispatch"; "engine"; "txn"; "undo" ]
          then acc + r.Ledger.ns
          else acc)
        0 rows
    in
    {
      batches;
      sink;
      rows;
      derived =
        kernel_derived (counter sink) pc
        @ [
            ("toolchain.calls", float_of_int assembles /. nb);
            ( "toolchain.ns_per_call",
              tool_ns /. float_of_int (max 1 assembles) );
            ("link.ns_per_miss", link_ns /. misses);
            ("link.words_per_miss", link_words /. misses);
            ("dispatch.calls", c "graft.invocations" /. nb);
            ("dispatch.ns_per_call", ns_dispatch);
            ("kcall.ns_per_call", pc.ns_kcall);
            ("snapshot.restores", float_of_int restores /. nb);
            ( "snapshot.ns_per_restore",
              restore_ns /. float_of_int (max 1 restores) );
            ( "site.create_ns",
              create_ns /. float_of_int (List.length Site.all_families) );
            ("injector.ns_per_trial", injector_ns /. units);
            ("invariant.ns_per_trial", invariant_ns /. units);
          ];
      checks =
        [
          Printf.sprintf
            "site.run spans (site.drive + Kernel.run) total %.0f ns; the \
             engine, dispatch, txn and undo rows price %d ns of it. The VM \
             body, kcalls and family subsystems inside have no count the \
             benchmark can see: the rest stays in unattributed"
            run_ns priced;
        ];
      mismatches = [];
    }
  in
  {
    name = "campaign";
    unit_name = "trial";
    setup = (fun () -> ignore (warmed_sites ()));
    batch;
    reference;
    canary = check_campaign_canary;
    traced;
    paper_us = None;
  }

(* ---------------------------------------------------------------- crypt *)

let invocations = 8000
let warmup_invocations = 3

(* Table 6's fixture, rebuilt for the probes: the encryption graft over
   an 8 KB buffer, sealed with MiSFIT (the Safe path). *)
let crypt_key = 0x5EC2E7
let buffer_words = Vino_stream.Channel.buffer_words_8kb
let segment_words = (2 * buffer_words) + 512

let crypt_fixture () =
  let k = Kernel.create ~mem_words:(1 lsl 16) () in
  let (_ : Vino_stream.Channel.t) =
    Vino_stream.Channel.create k ~name:"bench" ()
  in
  let source = Vino_stream.Grafts.xor_encrypt_source ~key:crypt_key in
  let image = Probes.seal_exn k (Asm.assemble_exn source) in
  (k, source, image)

let crypt_digest st =
  digest_of
    [
      Printf.sprintf "n=%d mean=%.17g min=%.17g max=%.17g p50=%.17g p99=%.17g"
        (Stats.count st) (Stats.mean st) (Stats.min_value st)
        (Stats.max_value st) (Stats.percentile st 50.)
        (Stats.percentile st 99.);
    ]

(* The Safe path's simulated samples at 8000 invocations. A change that
   only speeds up the simulator must reproduce them bit for bit. *)
let crypt_reference = "8cdd67eb1427cae0fd6bf85d1c049175"

let crypt () =
  let batch _ =
    match
      Vino_measure.Sc_crypt.stats ~iterations:invocations Vino_measure.Path.Safe
    with
    | st ->
        (* the Safe path commits every invocation: [stats] raises on the
           first one that does not, and that batch counts every
           invocation as failed *)
        {
          units = invocations;
          fails = 0;
          digest = crypt_digest st;
          virt = st;
          errors = [];
        }
    | exception Failure reason ->
        {
          units = invocations;
          fails = invocations;
          digest = "";
          virt = stats_of [ 0. ];
          errors = [ "crypt: " ^ reason ];
        }
  in
  let traced ks =
    let sink = Trace.create () in
    let batches = traced_batches sink ~twin:batch ~traced:batch ks in
    let nb = float_of_int (List.length ks) in
    let runs = nb *. float_of_int (invocations + warmup_invocations) in
    let pc = path_costs () in
    let k, source, image = crypt_fixture () in
    let ns_tool =
      span "probe.toolchain" (fun () -> Probes.toolchain_ns k [ source ])
    in
    let link =
      span "probe.link" (fun () ->
          Probes.link_costs k ~words:segment_words [ image ])
    in
    let vm =
      span "probe.vm" (fun () ->
          let loaded = Probes.load_exn k ~words:segment_words image in
          let seg = loaded.Linker.seg in
          (* the graft only reads the source half, so the kernel's copy-in
             is done once and each run just sets the entry registers *)
          Array.iteri
            (fun i v -> Mem.store k.Kernel.mem (Mem.sandbox seg i) v)
            (Array.init buffer_words (fun i -> (i * 2654435761) land 0xFFFF));
          Probes.vm_costs k loaded
            [
              (fun cpu ->
                Cpu.set_reg cpu 1 seg.Mem.base;
                Cpu.set_reg cpu 2 (seg.Mem.base + buffer_words);
                Cpu.set_reg cpu 3 buffer_words);
            ])
    in
    let ns_dispatch =
      span "probe.dispatch" (fun () ->
          Probes.rig_dispatch_ns ~engine:pc.engine ~txn:pc.txn)
    in
    let c = counter sink in
    let rows =
      rows_of
        ([
           ("toolchain", nb *. ns_tool);
           ( "link",
             (c "jit.misses" *. link.Probes.miss)
             +. (c "jit.hits" *. link.hit) );
           ("dispatch", runs *. ns_dispatch);
           ("vm", runs *. vm.Probes.ns_per_run);
         ]
        @ kernel_rows (counter sink) pc)
    in
    let sandbox = runs *. vm.Probes.sandbox in
    let replica =
      Printf.sprintf
        "vm replica: %.0f sandbox cycles over the invocations, traced \
         sfi.sandbox_cycles %.0f"
        sandbox (c "sfi.sandbox_cycles")
    in
    {
      batches;
      sink;
      rows;
      derived =
        kernel_derived (counter sink) pc
        @ [
            ("toolchain.calls", 1.);
            ("toolchain.ns_per_call", ns_tool);
            ("link.ns_per_miss", link.miss);
            ("link.words_per_miss", link.words_per_miss);
            ("dispatch.calls", runs /. nb);
            ("dispatch.ns_per_call", ns_dispatch);
            ("vm.insns", runs *. vm.Probes.insns /. nb);
            ("vm.ns_per_insn", vm.Probes.ns_per_run /. vm.Probes.insns);
            ("kcall.ns_per_call", pc.ns_kcall);
          ];
      checks = [ replica ];
      mismatches =
        (if sandbox = c "sfi.sandbox_cycles" then [] else [ replica ]);
    }
  in
  {
    name = "crypt-stream";
    unit_name = "invocation";
    setup =
      (fun () ->
        let k, _, image = crypt_fixture () in
        ignore (Vino_measure.Rig.load k ~words:segment_words image));
    batch;
    reference = (fun _ -> Ok crypt_reference);
    (* every batch is checked against a recorded constant already *)
    canary = (fun () -> []);
    traced;
    paper_us =
      List.assoc_opt Vino_measure.Path.Safe Vino_measure.Sc_crypt.paper_elapsed;
  }

let names = [ "serve-churn"; "serve-steady"; "campaign"; "crypt-stream" ]

let find name ~seed ~vino =
  match name with
  | "serve-churn" -> Some (serve ~churn:true ~seed ~vino)
  | "serve-steady" -> Some (serve ~churn:false ~seed ~vino)
  | "campaign" -> Some (campaign ~seed)
  | "crypt-stream" -> Some (crypt ())
  | _ -> None
