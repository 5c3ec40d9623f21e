module Engine = Vino_sim.Engine
module Costs = Vino_vm.Costs
module Insn = Vino_vm.Insn
module Asm = Vino_vm.Asm
module Kernel = Vino_core.Kernel
module Kcall = Vino_core.Kcall
module Cred = Vino_core.Cred
module Audit = Vino_core.Audit
module Event_point = Vino_core.Event_point
module Rlimit = Vino_txn.Rlimit
module Txn = Vino_txn.Txn
module Verify = Vino_verify.Verify
module Pool = Vino_par.Pool

type path = Interp | Translated | Verified

let path_name = function
  | Interp -> "interp"
  | Translated -> "translated"
  | Verified -> "verified-translated"

let all_paths = [ Interp; Translated; Verified ]

type config = {
  tenants : int;
  requests : int;
  interval : int;
  pause : int;
  max_inflight : int;
  jit_cache_cap : int;
  reinstall_every : int;
  shards : int;
  path : path;
  seed : int;
  runaway : int option;
  net_quota : int;
}

let default =
  {
    tenants = 8;
    requests = 24;
    interval = 4_000;
    pause = 24_000;
    max_inflight = 4;
    jit_cache_cap = 2;
    reinstall_every = 6;
    shards = 4;
    path = Translated;
    seed = 42;
    runaway = None;
    net_quota = 8;
  }

type report = {
  config : config;
  samples : (int * int * float) list;
  per_tenant : (int * string * int * int) list;
  served : int;
  rejected : int;
  admission_audited : int;
  handler_failures : int;
  proc_failures : int;
  transmitted : int;
  quota_denials : int;
  jit_hits : int;
  jit_misses : int;
  jit_evictions : int;
  verdict_hits : int;
  verdict_misses : int;
  drain_us : float;
  throughput_rps : float;
}

let families = [| "ra"; "evict"; "sched"; "http" |]
let family_name i = families.(i mod Array.length families)

(* Payload layout: [| arrival stamp (cycles); tenant id; request id;
   work count |]. The handler entry convention gives r1 = payload
   address, r2 = payload length. *)
let payload_words = 16
let heap_words = 16
let verify_words = 8

(* Per-request work: a small per-tenant constant so the four handler
   families produce distinct, seed-perturbed service times. *)
let work_of cfg tenant = 40 + (8 * (((tenant * 7) + cfg.seed) mod 9))

(* Handler grafts. Every tenant's code starts by baking its id into a
   dead register so each tenant has a distinct post-link signature — the
   translation cache then sees [tenants-per-shard] distinct entries and
   the LRU policy has something to evict. All loads go through r6, a
   copy of the segment-window pointer in r1, at constant offsets < 4,
   which the static verifier can prove in-segment on the
   verified-translated path. *)
let graft_source ~tenant ~flood : Asm.item list =
  let prologue : Asm.item list =
    [
      Li (Asm.r13, tenant);
      Ld (Asm.r3, Asm.r1, 0);
      (* arrival stamp *)
      Ld (Asm.r4, Asm.r1, 1);
      (* tenant id *)
      Ld (Asm.r11, Asm.r1, 2);
      (* request id — held in a register to the end: the window is
         shared with later arrivals, whose blits overwrite it *)
      Ld (Asm.r5, Asm.r1, 3);
      (* work count *)
      Mov (Asm.r6, Asm.r1);
      Mov (Asm.r1, Asm.r4);
      Kcall "serve.acquire";
    ]
  in
  let body : Asm.item list =
    if flood then
      [
        (* runaway: burn the work count on net.send floods; denials
           return r0 = 0 without aborting, so the quota slice, not the
           transaction machinery, is what contains the tenant *)
        Li (Asm.r7, 0);
        Label "flood";
        Br (Insn.Ge, Asm.r7, Asm.r5, "done");
        Li (Asm.r1, 99);
        Kcall "net.send";
        Alui (Insn.Add, Asm.r7, Asm.r7, 1);
        Jmp "flood";
        Label "done";
      ]
    else
      match tenant mod Array.length families with
      | 0 ->
          (* "ra": read-ahead-style sequential accumulate *)
          [
            Li (Asm.r7, 0);
            Li (Asm.r8, 0);
            Label "loop";
            Br (Insn.Ge, Asm.r7, Asm.r5, "done");
            Ld (Asm.r9, Asm.r6, 2);
            Alu (Insn.Add, Asm.r8, Asm.r8, Asm.r9);
            Alui (Insn.Add, Asm.r7, Asm.r7, 1);
            Jmp "loop";
            Label "done";
          ]
      | 1 ->
          (* "evict": stride-2 maximum scan *)
          [
            Li (Asm.r7, 0);
            Li (Asm.r8, 0);
            Label "loop";
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
          (* "sched": scheduler-delegate countdown *)
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
          (* "http": branch on request parity, then xor-fold *)
          [
            Ld (Asm.r7, Asm.r6, 2);
            Alui (Insn.And, Asm.r8, Asm.r7, 1);
            Li (Asm.r9, 0);
            Br (Insn.Eq, Asm.r8, Asm.r9, "even");
            Alui (Insn.Add, Asm.r5, Asm.r5, 8);
            Label "even";
            Li (Asm.r7, 0);
            Li (Asm.r8, 0);
            Label "loop";
            Br (Insn.Ge, Asm.r7, Asm.r5, "done");
            Ld (Asm.r9, Asm.r6, 0);
            Alu (Insn.Xor, Asm.r8, Asm.r8, Asm.r9);
            Alui (Insn.Add, Asm.r7, Asm.r7, 1);
            Jmp "loop";
            Label "done";
          ]
  in
  let epilogue : Asm.item list =
    [
      Mov (Asm.r1, Asm.r4);
      Mov (Asm.r2, Asm.r3);
      Mov (Asm.r3, Asm.r11);
      Kcall "serve.done";
      Li (Asm.r0, 0);
      Ret;
    ]
  in
  prologue @ body @ epilogue

let tenant_family cfg tenant =
  if cfg.runaway = Some tenant then "flood" else family_name tenant

(* Everything one shard produces; merged in shard-index order. *)
type shard_out = {
  s_samples : (int * int * float) list;
  s_per_tenant : (int * string * int * int) list;
  s_served : int;
  s_rejected : int;
  s_audited : int;
  s_failures : int;
  s_proc_failures : int;
  s_transmitted : int;
  s_denials : int;
  s_jit : Kernel.jit_cache_stats;
  s_verdicts : Kernel.verdict_stats;
  s_drain_us : float;
}

let empty_shard =
  {
    s_samples = [];
    s_per_tenant = [];
    s_served = 0;
    s_rejected = 0;
    s_audited = 0;
    s_failures = 0;
    s_proc_failures = 0;
    s_transmitted = 0;
    s_denials = 0;
    s_jit =
      {
        Kernel.jit_hits = 0;
        jit_misses = 0;
        jit_evictions = 0;
        jit_entries = 0;
      };
    s_verdicts =
      { Kernel.verdict_hits = 0; verdict_misses = 0; verdict_entries = 0 };
    s_drain_us = 0.;
  }

let seal_tenant cfg kernel source =
  let obj = Asm.assemble_exn source in
  let verify =
    match cfg.path with
    | Verified ->
        Some
          (Verify.config
             ~entry:(Event_point.entry_facts ~payload_words)
             ~words:verify_words ())
    | Interp | Translated -> None
  in
  match Kernel.seal ?verify kernel obj with
  | Ok image -> image
  | Error e -> invalid_arg ("Serve: tenant graft failed to seal: " ^ e)

let register_kcalls kernel ~tenants ~creds ~locks ~on_done =
  (* the shard's tenants by global id *)
  let local = Hashtbl.create 16 in
  List.iteri (fun li i -> Hashtbl.replace local i li) tenants;
  let li_of tenant =
    match Hashtbl.find_opt local tenant with
    | Some li -> li
    | None -> invalid_arg "Serve: request for a tenant of another shard"
  in
  (* r1 names the tenant; only that tenant's own handler may act for it.
     A physical comparison of credentials allocates nothing. *)
  let caller_is ctx li = ctx.Kcall.cred == creds.(li) in
  let (_ : Kcall.fn) =
    Kernel.register_kcall kernel ~name:"serve.acquire" (fun ctx ->
        match ctx.Kcall.txn with
        | None -> Kcall.abort "serve.acquire outside a transaction"
        | Some txn -> (
            let li = li_of (Kcall.arg ctx.Kcall.cpu 0) in
            if not (caller_is ctx li) then
              Kcall.abort "serve.acquire: r1 names another tenant"
            else
              match Txn.acquire_lock txn locks.(li) Exclusive with
              | Ok () -> Kcall.ok
              | Error reason -> Kcall.abort reason))
  in
  let (_ : Kcall.fn) =
    Kernel.register_kcall kernel ~name:"serve.done" (fun ctx ->
        match ctx.Kcall.txn with
        | None -> Kcall.abort "serve.done outside a transaction"
        | Some txn ->
            let li = li_of (Kcall.arg ctx.Kcall.cpu 0) in
            if not (caller_is ctx li) then
              Kcall.abort "serve.done: r1 names another tenant"
            else begin
              let stamp = Kcall.arg ctx.Kcall.cpu 1 in
              let req = Kcall.arg ctx.Kcall.cpu 2 in
              (* the response instant is the request's commit: graft
                 cycles are charged to the clock in wrapper slices, so the
                 clock mid-kcall is stale — defer the reading until the
                 transaction commits and the charge is complete (aborted
                 requests then never record a sample) *)
              Txn.defer txn (fun () -> on_done li ~stamp ~req);
              Kcall.ok
            end)
  in
  ()

(* Kernel memory for a shard of [n] tenants: an upper half that holds
   each tenant's handler segment and the one a reinstall retires while
   its last invocation finishes, and the lower, kernel-reserved half
   below it. Both halves are powers of two, as the segment allocator
   needs. *)
let shard_words n =
  let rec pow2 w k = if k >= w then k else pow2 w (2 * k) in
  let seg = pow2 (Event_point.segment_words ~payload_words ~heap_words) 8 in
  2 * pow2 (2 * n * seg) 1

let run_shard cfg shard =
  let tenants =
    List.filter
      (fun i -> i mod cfg.shards = shard)
      (List.init cfg.tenants Fun.id)
  in
  if tenants = [] then empty_shard
  else begin
    let n = List.length tenants in
    let exec_mode =
      match cfg.path with
      | Interp -> Vino_vm.Jit.Interp
      | Translated | Verified -> Vino_vm.Jit.Translated
    in
    let kernel =
      Kernel.create ~mem_words:(shard_words n)
        ~jit_cache_cap:cfg.jit_cache_cap ~exec_mode ()
    in
    let netout = Netout.create kernel () in
    (* the shard's server-wide account; every tenant gets a derived
       slice, so the shard's total grant is fixed up front *)
    let parent =
      Rlimit.create ~memory_words:(4096 * n) ~net_packets:(cfg.net_quota * n)
        ()
    in
    let slots = Array.make_matrix n cfg.requests (-1.0) in
    (* the shard's makespan is the last response instant, not the
       engine's drain time: a contended lock leaves cancelled time-out
       timers armed on the tick wheel, and those no-op firings would
       otherwise stretch the drain to the next 10 ms boundary *)
    let last_done = ref 0 in
    let inflight = Array.make n 0 in
    let served = Array.make n 0 in
    let rejected = Array.make n 0 in
    let locks =
      List.map
        (fun i ->
          Kernel.make_lock kernel
            ~timeout:(Vino_txn.Tcosts.us 20_000.)
            ~name:(Printf.sprintf "serve.tenant:%d" i)
            ())
        tenants
      |> Array.of_list
    in
    (* each tenant's resource slice is derived from the shard account
       once and survives handler churn: inheritance is per tenant, not
       per install *)
    let tslim =
      List.map
        (fun _ ->
          match
            Rlimit.derive ~parent ~memory_words:4096
              ~net_packets:cfg.net_quota ()
          with
          | Ok l -> l
          | Error `Denied -> invalid_arg "Serve: parent account underfunded")
        tenants
      |> Array.of_list
    in
    (* one credential per tenant, for every install: the kcalls tell a
       tenant's handler from another's by it (Rule 8) *)
    let creds =
      List.mapi
        (fun li i ->
          Cred.user (Printf.sprintf "tenant-%d" i) ~limits:tslim.(li))
        tenants
      |> Array.of_list
    in
    register_kcalls kernel ~tenants ~creds ~locks
      ~on_done:(fun li ~stamp ~req ->
        let now = Engine.now kernel.Kernel.engine in
        last_done := max !last_done now;
        slots.(li).(req) <- Costs.us_of_cycles (now - stamp);
        served.(li) <- served.(li) + 1;
        inflight.(li) <- max 0 (inflight.(li) - 1));
    let ports =
      List.map
        (fun i -> Port.create kernel Tcp ~number:(8000 + i)) tenants
      |> Array.of_list
    in
    let handlers = Array.make n (-1) in
    let images =
      List.map
        (fun i ->
          seal_tenant cfg kernel
            (graft_source ~tenant:i ~flood:(cfg.runaway = Some i)))
        tenants
      |> Array.of_list
    in
    let install li =
      match
        Event_point.add_handler
          (Port.event_point ports.(li))
          kernel ~cred:creds.(li) ~payload_words ~heap_words
          ~limits:tslim.(li) images.(li)
      with
      | Ok hid -> handlers.(li) <- hid
      | Error e -> invalid_arg ("Serve: handler install failed: " ^ e)
    in
    List.iteri (fun li _ -> install li) tenants;
    (* Tenant churn: on every k-th arrival (and only when the tenant is
       idle, so its in-flight work keeps a live translation), tear the
       handler down and reinstall it. The reinstall routes through
       Linker.load -> Kernel.translate, which is where the bounded
       cache's hits, misses and evictions come from. *)
    let reinstall li =
      Event_point.remove_handler (Port.event_point ports.(li)) kernel
        handlers.(li);
      install li
    in
    let arrival li i r =
      if inflight.(li) >= cfg.max_inflight then begin
        rejected.(li) <- rejected.(li) + 1;
        Kernel.audit_event kernel
          (Audit.Admission_rejected
             {
               point = Printf.sprintf "tcp.port-%d" (8000 + i);
               tenant = Printf.sprintf "tenant-%d" i;
               reason =
                 Printf.sprintf "in-flight cap %d reached" cfg.max_inflight;
             })
      end
      else begin
        if
          cfg.reinstall_every > 0
          && r > 0
          && r mod cfg.reinstall_every = 0
          && inflight.(li) = 0
        then reinstall li;
        inflight.(li) <- inflight.(li) + 1;
        Port.connect ports.(li)
          ~payload:
            [| Engine.now kernel.Kernel.engine; i; r; work_of cfg i |]
      end
    in
    (* Open-loop arrivals in bursts of [reinstall_every]: the [pause]
       between bursts lets a tenant drain idle, which is when the churn
       reinstall can actually run (a live in-flight request pins the
       loaded graft). *)
    let arrival_time cfg i r =
      let phase = (i + 1) * 137 in
      let pauses =
        if cfg.reinstall_every > 0 then r / cfg.reinstall_every else 0
      in
      phase + (r * cfg.interval) + (pauses * cfg.pause)
    in
    List.iteri
      (fun li i ->
        for r = 0 to cfg.requests - 1 do
          let (_ : Engine.cancel) =
            Engine.at kernel.Kernel.engine (arrival_time cfg i r) (fun () ->
                arrival li i r)
          in
          ()
        done)
      tenants;
    Kernel.run kernel;
    (* consed back to front, so the list reads in (tenant, request)
       order *)
    let samples = ref [] in
    let ids = Array.of_list tenants in
    for li = n - 1 downto 0 do
      for r = cfg.requests - 1 downto 0 do
        if slots.(li).(r) >= 0. then
          samples := (ids.(li), r, slots.(li).(r)) :: !samples
      done
    done;
    let audited =
      List.length
        (List.filter
           (fun (e : Audit.entry) ->
             match e.Audit.event with
             | Audit.Admission_rejected _ -> true
             | _ -> false)
           (Audit.entries kernel.Kernel.audit))
    in
    let failures =
      Array.fold_left
        (fun acc p ->
          acc + Event_point.handler_failures (Port.event_point p))
        0 ports
    in
    {
      s_samples = !samples;
      s_per_tenant =
        List.mapi
          (fun li i -> (i, tenant_family cfg i, served.(li), rejected.(li)))
          tenants;
      s_served = Array.fold_left ( + ) 0 served;
      s_rejected = Array.fold_left ( + ) 0 rejected;
      s_audited = audited;
      s_failures = failures;
      s_proc_failures = List.length (Engine.failures kernel.Kernel.engine);
      s_transmitted = Netout.transmitted netout;
      s_denials = Netout.quota_denials netout;
      s_jit = Kernel.jit_cache_stats kernel;
      s_verdicts = Kernel.verdict_stats kernel;
      (* Makespan is the instant the last response committed, not the
         engine drain time: cancelled lock-timeout timers stay armed on
         the tick wheel and fire as no-ops, which would otherwise round
         the drain up to the next 10ms tick boundary. *)
      s_drain_us = Costs.us_of_cycles !last_done;
    }
  end

let run ?pool cfg =
  if cfg.tenants < 1 then invalid_arg "Serve.run: tenants must be positive";
  if cfg.requests < 1 then invalid_arg "Serve.run: requests must be positive";
  if cfg.shards < 1 then invalid_arg "Serve.run: shards must be positive";
  (match cfg.runaway with
  | Some i when i < 0 || i >= cfg.tenants ->
      invalid_arg "Serve.run: runaway tenant out of range"
  | _ -> ());
  let outs =
    Pool.map ?pool (run_shard cfg) (List.init cfg.shards Fun.id)
  in
  (* each shard's samples are already in (tenant, request) order *)
  let samples =
    List.fold_left
      (fun acc o ->
        List.merge
          (fun (t1, r1, _) (t2, r2, _) ->
            if t1 <> t2 then Int.compare t1 t2 else Int.compare r1 r2)
          acc o.s_samples)
      [] outs
  in
  let per_tenant =
    List.concat_map (fun o -> o.s_per_tenant) outs
    |> List.sort (fun (t1, _, _, _) (t2, _, _, _) -> compare t1 t2)
  in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 outs in
  let served = sum (fun o -> o.s_served) in
  let drain_us =
    List.fold_left (fun acc o -> Float.max acc o.s_drain_us) 0. outs
  in
  {
    config = cfg;
    samples;
    per_tenant;
    served;
    rejected = sum (fun o -> o.s_rejected);
    admission_audited = sum (fun o -> o.s_audited);
    handler_failures = sum (fun o -> o.s_failures);
    proc_failures = sum (fun o -> o.s_proc_failures);
    transmitted = sum (fun o -> o.s_transmitted);
    quota_denials = sum (fun o -> o.s_denials);
    jit_hits = sum (fun o -> o.s_jit.Kernel.jit_hits);
    jit_misses = sum (fun o -> o.s_jit.Kernel.jit_misses);
    jit_evictions = sum (fun o -> o.s_jit.Kernel.jit_evictions);
    verdict_hits = sum (fun o -> o.s_verdicts.Kernel.verdict_hits);
    verdict_misses = sum (fun o -> o.s_verdicts.Kernel.verdict_misses);
    drain_us;
    throughput_rps =
      (if drain_us > 0. then float_of_int served /. drain_us *. 1e6
       else 0.);
  }

let latencies ?tenant report =
  List.filter_map
    (fun (t, _, us) ->
      match tenant with
      | Some wanted when t <> wanted -> None
      | _ -> Some us)
    report.samples
