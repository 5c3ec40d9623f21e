(* Multi-tenant graft server (lib/net/serve.ml): determinism across the
   domain pool, admission control + audit, runaway containment under
   inherited limits, execution-path parity and translation-cache churn. *)

module Serve = Vino_net.Serve
module Pool = Vino_par.Pool

(* Small enough to keep tier-1 fast, big enough that every shard holds
   at least two tenants and every tenant sees a reinstall burst. *)
let small =
  { Serve.default with Serve.tenants = 4; requests = 8; shards = 2 }

(* The report is a pure function of the config: running the shards
   serially and over a 3-domain pool must produce equal reports, and
   repeating a run must reproduce it bit-for-bit. *)
let test_determinism () =
  let serial = Serve.run small in
  let pool = Pool.create ~domains:3 () in
  let pooled =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> Serve.run ~pool small)
  in
  Alcotest.(check bool) "pooled report equals serial" true (serial = pooled);
  Alcotest.(check bool)
    "repeat run reproduces" true
    (Serve.run small = serial);
  Alcotest.(check int) "every arrival served" (small.Serve.tenants * 8)
    serial.Serve.served;
  Alcotest.(check bool) "makespan positive" true (serial.Serve.drain_us > 0.);
  Alcotest.(check bool) "throughput positive" true
    (serial.Serve.throughput_rps > 0.)

(* Samples come back sorted by (tenant, request) with no duplicates, so
   JSON dumps diff cleanly. *)
let test_samples_sorted () =
  let r = Serve.run small in
  let keys = List.map (fun (t, req, _) -> (t, req)) r.Serve.samples in
  Alcotest.(check bool) "sorted by tenant then request" true
    (List.sort compare keys = keys);
  Alcotest.(check int) "no duplicate (tenant, request)"
    (List.length keys)
    (List.length (List.sort_uniq compare keys))

(* A tight in-flight cap under a fast arrival rate sheds load, and every
   shed arrival lands an [Admission_rejected] entry in its shard's audit
   trail — the counts must agree exactly. *)
let test_admission_control () =
  let r =
    Serve.run { small with Serve.max_inflight = 1; interval = 1_000 }
  in
  Alcotest.(check bool) "cap sheds load" true (r.Serve.rejected > 0);
  Alcotest.(check int) "every rejection audited" r.Serve.rejected
    r.Serve.admission_audited;
  Alcotest.(check int) "served + rejected accounts for every arrival"
    (small.Serve.tenants * small.Serve.requests)
    (r.Serve.served + r.Serve.rejected);
  Alcotest.(check int) "no handler failures" 0 r.Serve.handler_failures

(* A runaway tenant flooding [net.send] is capped by its own inherited
   [Net_packets] slice: it transmits at most its quota, the rest are
   quota denials, and every other tenant's latency samples — including
   its same-shard neighbours' — are bit-identical to the run without the
   runaway. *)
let test_runaway_contained () =
  let base = Serve.run small in
  let r = Serve.run { small with Serve.runaway = Some 0 } in
  Alcotest.(check bool) "flood transmits something" true
    (r.Serve.transmitted > 0);
  Alcotest.(check bool) "slice caps the flood" true
    (r.Serve.transmitted <= small.Serve.net_quota);
  Alcotest.(check bool) "overflow denied, not transmitted" true
    (r.Serve.quota_denials > 0);
  Alcotest.(check int) "no handler failures" 0 r.Serve.handler_failures;
  List.iter
    (fun t ->
      Alcotest.(check (list (float 0.)))
        (Printf.sprintf "tenant %d unperturbed" t)
        (Serve.latencies ~tenant:t base)
        (Serve.latencies ~tenant:t r))
    [ 1; 2; 3 ];
  Alcotest.(check bool) "the runaway's own samples do change" true
    (Serve.latencies ~tenant:0 base <> Serve.latencies ~tenant:0 r)

(* Translation is a host-time optimisation: interpreted and translated
   runs are cycle-identical (the jit-differential invariant), while the
   verified path elides proven safety checks and is strictly faster. *)
let test_path_parity () =
  let ri = Serve.run { small with Serve.path = Serve.Interp } in
  let rt = Serve.run { small with Serve.path = Serve.Translated } in
  let rv = Serve.run { small with Serve.path = Serve.Verified } in
  Alcotest.(check bool) "interp and translated samples bit-identical" true
    (ri.Serve.samples = rt.Serve.samples);
  let sum r =
    List.fold_left (fun acc l -> acc +. l) 0. (Serve.latencies r)
  in
  Alcotest.(check bool) "verified strictly faster in aggregate" true
    (sum rv < sum rt)

(* Tenant churn (periodic reinstalls) drives the per-kernel translation
   cache: with enough capacity the reinstalled graft's code is a hit;
   with more tenants than capacity the shard thrashes and evicts. *)
let test_cache_churn () =
  let r = Serve.run small in
  Alcotest.(check bool)
    "reinstalls hit the cache" true
    (r.Serve.jit_hits > 0);
  Alcotest.(check int) "one miss per tenant" small.Serve.tenants
    r.Serve.jit_misses;
  Alcotest.(check int) "no evictions within capacity" 0 r.Serve.jit_evictions;
  let thrash = Serve.run { small with Serve.tenants = 6 } in
  Alcotest.(check bool) "over-capacity shard evicts" true
    (thrash.Serve.jit_evictions > 0);
  Alcotest.(check bool) "eviction forces re-translation" true
    (thrash.Serve.jit_misses > 6);
  let no_churn = Serve.run { small with Serve.reinstall_every = 0 } in
  Alcotest.(check int) "no churn, no cache hits" 0 no_churn.Serve.jit_hits

(* Serve's virtual results, pinned: the canary digest hostbench records
   for 16 tenants x 200 requests at seed 42, the MD5 hex of the
   served/rejected/jit line and one [%d %d %.6f] line per (tenant,
   request, latency) sample. The gated percentiles allow 2% drift and
   the CI diffs compare this tree with itself; only a recorded digest
   catches one extra cycle per event. *)
let canary_digest (r : Serve.report) =
  Printf.sprintf "served=%d rejected=%d jit=%d/%d/%d" r.Serve.served
    r.Serve.rejected r.Serve.jit_hits r.Serve.jit_misses r.Serve.jit_evictions
  :: List.map
       (fun (t, req, us) -> Printf.sprintf "%d %d %.6f" t req us)
       r.Serve.samples
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let test_golden_digest () =
  List.iter
    (fun (jit_cache_cap, reinstall_every, jit, digest) ->
      let r =
        Serve.run
          {
            Serve.default with
            tenants = 16;
            requests = 200;
            seed = 42;
            jit_cache_cap;
            reinstall_every;
          }
      in
      let label =
        Printf.sprintf "cap %d, reinstall %d" jit_cache_cap reinstall_every
      in
      Alcotest.(check (triple int int int))
        (label ^ ": jit hits/misses/evictions")
        jit
        (r.Serve.jit_hits, r.Serve.jit_misses, r.Serve.jit_evictions);
      Alcotest.(check string) (label ^ ": digest") digest (canary_digest r))
    [
      (2, 6, (0, 544, 536), "e55d23abb06a24c846b27445bb0b80ea");
      (256, 0, (0, 16, 0), "568ea939c7552c51f49259ced1130ccf");
    ]

(* No request's worker process may die: [proc_failures] counts engine
   process failures over the shard kernels. Checked on the CLI's default
   shape and on the deepest pre-run schedule, 16 x 4000 with a warm
   translation cache and no reinstalls. *)
let test_no_dead_workers () =
  List.iter
    (fun (label, cfg) ->
      let r = Serve.run cfg in
      Alcotest.(check int)
        (label ^ ": no dead worker")
        0 r.Serve.proc_failures;
      Alcotest.(check int)
        (label ^ ": every arrival served or shed")
        (cfg.Serve.tenants * cfg.Serve.requests)
        (r.Serve.served + r.Serve.rejected))
    [
      ("default", Serve.default);
      ( "16 x 4000",
        {
          Serve.default with
          tenants = 16;
          requests = 4000;
          jit_cache_cap = 256;
          reinstall_every = 0;
        } );
    ]

let test_config_validation () =
  List.iter
    (fun cfg ->
      match Serve.run cfg with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "invalid config accepted")
    [
      { small with Serve.tenants = 0 };
      { small with Serve.requests = 0 };
      { small with Serve.shards = 0 };
      { small with Serve.runaway = Some 4 };
      { small with Serve.runaway = Some (-1) };
    ]

(* Rule 8: the lock-hijack repro, on the kcalls one shard registers.
   Tenant 1's handler names tenant 5 in r1, takes that lock and then
   spins a million iterations while holding it; tenant 5's honest
   handler arrives 900 cycles later. The kcalls check the caller's
   credential, so the acquire aborts the hijacker, and tenant 5 is served
   exactly as fast as with no hijacker at all. Without the check tenant 5
   waits out the hijacker. *)
let hijack : Vino_vm.Asm.item list =
  let open Vino_vm in
  [
    Li (Asm.r13, 1);
    Li (Asm.r1, 5);
    Kcall "serve.acquire";
    Li (Asm.r7, 0);
    Li (Asm.r8, 1_000_000);
    Label "spin";
    Alui (Insn.Add, Asm.r7, Asm.r7, 1);
    Br (Insn.Lt, Asm.r7, Asm.r8, "spin");
    Li (Asm.r0, 0);
    Ret;
  ]

(* Tenant 5's latency in cycles, and the reasons its neighbour's handler
   failed for, on a kernel holding tenants 1 and 5 as one shard does. *)
let tenant5_beside ~hijacker =
  let module Kernel = Vino_core.Kernel in
  let module Engine = Vino_sim.Engine in
  let module Port = Vino_net.Port in
  let k = Kernel.create ~mem_words:(1 lsl 16) () in
  let limits = Vino_txn.Rlimit.unlimited () in
  let tenants = [ 1; 5 ] in
  let creds =
    Array.of_list
      (List.map
         (fun i -> Vino_core.Cred.user (Printf.sprintf "tenant-%d" i) ~limits)
         tenants)
  in
  let locks =
    Array.of_list
      (List.map
         (fun i ->
           Kernel.make_lock k
             ~timeout:(Vino_txn.Tcosts.us 20_000.)
             ~name:(Printf.sprintf "serve.tenant:%d" i)
             ())
         tenants)
  in
  let latency = ref None in
  Serve.register_kcalls k ~tenants ~creds ~locks
    ~on_done:(fun li ~stamp ~req:_ ->
      if li = 1 then latency := Some (Engine.now k.Kernel.engine - stamp));
  let arrive li ~at source =
    let port = Port.create k Tcp ~number:(8000 + List.nth tenants li) in
    let image =
      match Kernel.seal k (Vino_vm.Asm.assemble_exn source) with
      | Ok image -> image
      | Error e -> Alcotest.fail e
    in
    (match
       Vino_core.Event_point.add_handler (Port.event_point port) k
         ~cred:creds.(li) ~payload_words:16 ~heap_words:16 ~limits image
     with
    | Ok (_ : int) -> ()
    | Error e -> Alcotest.fail e);
    let (_ : Engine.cancel) =
      Engine.at k.Kernel.engine at (fun () ->
          Port.connect port ~payload:[| at; List.nth tenants li; 0; 40 |])
    in
    ()
  in
  arrive 1 ~at:1_000 (Serve.graft_source ~tenant:5 ~flood:false);
  if hijacker then arrive 0 ~at:100 hijack;
  Kernel.run k;
  Alcotest.(check int) "no worker process died" 0
    (List.length (Engine.failures k.Kernel.engine));
  let failed =
    List.filter_map
      (fun (e : Vino_core.Audit.entry) ->
        match e.Vino_core.Audit.event with
        | Vino_core.Audit.Handler_failed { reason; _ } -> Some reason
        | _ -> None)
      (Vino_core.Audit.entries k.Kernel.audit)
  in
  (!latency, failed)

let test_lock_hijack_refused () =
  let base, none_failed = tenant5_beside ~hijacker:false in
  let hijacked, failed = tenant5_beside ~hijacker:true in
  Alcotest.(check bool) "tenant 5 served alone" true (base <> None);
  Alcotest.(check (list string)) "no handler failed alone" [] none_failed;
  Alcotest.(check (option int)) "tenant 5's latency unperturbed" base hijacked;
  Alcotest.(check (list string)) "the hijacker's acquire refused"
    [ "serve.acquire: r1 names another tenant" ]
    failed

let suite =
  [
    ( "serve",
      [
        Alcotest.test_case "deterministic across the domain pool" `Quick
          test_determinism;
        Alcotest.test_case "samples sorted and unique" `Quick
          test_samples_sorted;
        Alcotest.test_case "admission control audited exactly" `Quick
          test_admission_control;
        Alcotest.test_case "lock hijack refused by the caller's credential"
          `Quick test_lock_hijack_refused;
        Alcotest.test_case "runaway tenant contained by its slice" `Quick
          test_runaway_contained;
        Alcotest.test_case "interp/translated parity, verified faster" `Quick
          test_path_parity;
        Alcotest.test_case "churn drives the translation cache" `Quick
          test_cache_churn;
        Alcotest.test_case "config validation" `Quick test_config_validation;
        Alcotest.test_case "no worker process dies" `Quick
          test_no_dead_workers;
        Alcotest.test_case "virtual results match the recorded digests" `Quick
          test_golden_digest;
      ] );
  ]
