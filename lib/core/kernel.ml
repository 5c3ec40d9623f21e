module Engine = Vino_sim.Engine
module Tick = Vino_sim.Tick
module Trace = Vino_trace.Trace

(* Counter handles, interned once at load: the emit sites below
   bump a flat per-sink array instead of hashing a dotted name. *)
let h_jit_evictions = Vino_trace.Counters.handle "jit.evictions"
let h_jit_hits = Vino_trace.Counters.handle "jit.hits"
let h_jit_misses = Vino_trace.Counters.handle "jit.misses"

type cached = { tr : Vino_vm.Jit.t; mutable last_use : int }

type jit_cache_stats = {
  jit_hits : int;
  jit_misses : int;
  jit_evictions : int;
  jit_entries : int;
}

type linkable = {
  flow : Vino_verify.Kflow.table;
  bare : bool array option;
  unproven : int option;
}

type link_verdict = (linkable, string) result

type cached_verdict = {
  vcode : Vino_vm.Insn.t array;
  verdict : link_verdict;
}

type verdict_stats = {
  verdict_hits : int;
  verdict_misses : int;
  verdict_entries : int;
}

type flow_check =
  | Flow_off
  | Flow_own
  | Flow_pinned of Vino_verify.Kflow.table

type t = {
  engine : Engine.t;
  wheel : Tick.t;
  mem : Vino_vm.Mem.t;
  txn_mgr : Vino_txn.Txn.mgr;
  registry : Kcall.registry;
  segalloc : Segalloc.t;
  key : string;
  vm_costs : Vino_vm.Costs.t;
  audit : Audit.t;
  translations : (Vino_misfit.Sign.t * bool array option, cached) Hashtbl.t;
  translations_mu : Mutex.t;
  mutable jit_cache_cap : int;
  mutable jit_clock : int;
  mutable jit_hits : int;
  mutable jit_misses : int;
  mutable jit_evictions : int;
  verdicts :
    ( Vino_misfit.Sign.t
      * int
      * int
      * (Vino_vm.Insn.reg * Vino_verify.Absval.t) list,
      cached_verdict )
    Hashtbl.t;
  mutable verdict_hits : int;
  mutable verdict_misses : int;
  mutable exec_mode : Vino_vm.Jit.mode;
  mutable flow_check : flow_check;
  mutable snap_savers : (unit -> unit -> unit) list; (* newest first *)
}

let default_key = "vino-misfit-toolchain"
let default_jit_cache_cap = 256
let verdict_cap = 256

let create ?(mem_words = 1 lsl 20) ?tick ?(key = default_key)
    ?(jit_cache_cap = default_jit_cache_cap) ?exec_mode () =
  let engine = Engine.create () in
  let wheel = Tick.create engine ?tick () in
  let t =
    {
      engine;
      wheel;
      mem = Vino_vm.Mem.create mem_words;
      txn_mgr = Vino_txn.Txn.create_mgr engine ~wheel ();
      registry = Kcall.create ();
      (* the lower half of memory is kernel-reserved; graft segments are
         carved from the upper half, so no graft segment can cover kernel
         data *)
      segalloc = Segalloc.create ~base:(mem_words / 2) ~size:(mem_words / 2);
      key;
      vm_costs = Vino_vm.Costs.default;
      audit = Audit.create ();
      translations = Hashtbl.create 16;
      translations_mu = Mutex.create ();
      jit_cache_cap = max 1 jit_cache_cap;
      jit_clock = 0;
      jit_hits = 0;
      jit_misses = 0;
      jit_evictions = 0;
      verdicts = Hashtbl.create 16;
      verdict_hits = 0;
      verdict_misses = 0;
      exec_mode =
        (match exec_mode with
        | Some m -> m
        | None -> !Vino_vm.Jit.default_mode);
      flow_check = Flow_off;
      snap_savers = [];
    }
  in
  (* Built-in savers, registered oldest-first so restore replays them in
     this order (engine first: everything else assumes virtual time is
     already rewound). The JIT translation cache is deliberately NOT
     captured: translations are pure functions of (code, bare set, costs),
     cost no virtual cycles, and staying warm across restores is the
     point of forking — only the trace-level hit/miss counters differ,
     which no fingerprint reads. Neither is the link-verdict table: its
     keys carry the registry epoch, which a restore that changes the
     registry replaces. *)
  let engine_saver () =
    let s = Engine.snapshot t.engine in
    fun () -> Engine.restore t.engine s
  in
  (* Graft memory restores in O(blocks live at capture + blocks live
     now): free graft memory always reads zero ([Mem.create] zeroes, graft
     stores are sandboxed into their own live segment, and
     [Linker.unload] zeroes a block before freeing it), so only live
     blocks can hold data. Image the blocks live at capture; on restore
     zero the blocks live now (read before the allocator is rewound),
     then lay the captured images back in. *)
  let seg_mem_saver () =
    let seg = Segalloc.snapshot t.segalloc in
    let images =
      List.map
        (fun (b : Vino_vm.Mem.segment) ->
          (b.base, Vino_vm.Mem.blit_out t.mem b.base b.size))
        (Segalloc.blocks t.segalloc)
    in
    fun () ->
      List.iter
        (fun (b : Vino_vm.Mem.segment) ->
          Vino_vm.Mem.fill t.mem b.base b.size 0)
        (Segalloc.blocks t.segalloc);
      Segalloc.restore t.segalloc seg;
      List.iter (fun (addr, img) -> Vino_vm.Mem.blit_in t.mem addr img) images
  in
  let fields_saver () =
    let exec_mode = t.exec_mode
    and flow_check = t.flow_check
    and savers = t.snap_savers in
    fun () ->
      t.exec_mode <- exec_mode;
      t.flow_check <- flow_check;
      t.snap_savers <- savers
  in
  t.snap_savers <-
    [
      fields_saver;
      Audit.saver t.audit;
      Kcall.saver t.registry;
      Vino_txn.Txn.saver t.txn_mgr;
      seg_mem_saver;
      engine_saver;
    ];
  t

(* Translations are cached per kernel, keyed by the signature of the
   post-link code (relocations already patched to concrete [Kcall] ids) —
   not the image signature, because the registry may assign different ids
   to the same image across loads — paired with the bare set, the raw
   accesses the linker proved in-segment: the same post-link stream
   compiles differently with and without bare accesses, and the table
   compares the set on every lookup. The digest only picks the slot: a
   hit must also find the same code in the translation
   ({!Vino_vm.Jit.source}), as for link verdicts below, so any code
   difference misses even when two digests collide. The mutex makes the
   cache safe under concurrent loads from a domain pool ([Pool.map] /
   [-j N]); OCaml's Hashtbl is not. Holding it across [Jit.translate] is
   cheap: translation builds only static tables, with every window left
   uncompiled. Windows compile later, on first entry, outside the mutex
   and into the cached translation every load of the same code shares;
   domains racing on a first entry each compile an equivalent closure,
   which is benign (see {!Vino_vm.Jit}).

   The cache is bounded: [jit_cache_cap] entries, LRU eviction. Evicting
   an entry never invalidates running grafts — {!Linker.load} stores the
   [Jit.t] in its [loaded] record, so eviction only forces a later load
   of the same code to re-translate. Use stamps come from [jit_clock],
   advanced under the mutex, so a serial run's eviction order is a pure
   function of the load sequence. Hit/miss/eviction counts are kept both
   per kernel (deterministic, readable without a trace sink) and as
   {!Vino_trace.Trace} counters ([jit.hits] / [jit.misses] /
   [jit.evictions]) for traced reports. *)
let evict_over_cap t =
  (* caller holds [translations_mu] *)
  while Hashtbl.length t.translations > t.jit_cache_cap do
    let victim =
      Hashtbl.fold
        (fun key c acc ->
          match acc with
          | Some (_, best) when best <= c.last_use -> acc
          | _ -> Some (key, c.last_use))
        t.translations None
    in
    match victim with
    | Some (key, _) ->
        Hashtbl.remove t.translations key;
        t.jit_evictions <- t.jit_evictions + 1;
        Trace.incr_h h_jit_evictions
    | None -> assert false
  done

let code_digest t code =
  Vino_misfit.Sign.fold ~key:t.key (fun step h ->
      Vino_vm.Encode.fold step h code)

let translate t ?safe ?sign code =
  let sign = match sign with Some s -> s | None -> code_digest t code in
  let key = (sign, safe) in
  Mutex.protect t.translations_mu @@ fun () ->
  t.jit_clock <- t.jit_clock + 1;
  match Hashtbl.find_opt t.translations key with
  | Some c when Vino_vm.Jit.source c.tr = code ->
      t.jit_hits <- t.jit_hits + 1;
      Trace.incr_h h_jit_hits;
      c.last_use <- t.jit_clock;
      c.tr
  | Some _ | None ->
      t.jit_misses <- t.jit_misses + 1;
      Trace.incr_h h_jit_misses;
      let tr = Vino_vm.Jit.translate ~costs:t.vm_costs ?safe code in
      Hashtbl.replace t.translations key { tr; last_use = t.jit_clock };
      evict_over_cap t;
      tr

(* Link verdicts are cached beside the translations, under the same
   mutex, keyed by the post-link digest, the segment words, the registry
   epoch and the installer's entry facts: the analysis depends on the
   code, the segment size, the facts and the callable flags, the flow
   table on the code and the registry's id range, and the epoch changes
   whenever either of the last two can. The digest only picks the slot;
   a hit must also find the same code stored there, since a 63-bit
   digest does not vouch for a safety verdict. The table is cleared
   wholesale when it reaches [verdict_cap] entries. *)
let link_verdict t ~sign ~words ~entry code compute =
  let key = (sign, words, Kcall.epoch t.registry, entry) in
  Mutex.protect t.translations_mu @@ fun () ->
  match Hashtbl.find_opt t.verdicts key with
  | Some v when v.vcode = code ->
      t.verdict_hits <- t.verdict_hits + 1;
      v.verdict
  | Some _ | None ->
      t.verdict_misses <- t.verdict_misses + 1;
      let verdict = compute () in
      if Hashtbl.length t.verdicts >= verdict_cap then
        Hashtbl.clear t.verdicts;
      Hashtbl.replace t.verdicts key { vcode = code; verdict };
      verdict

let verdict_stats t =
  Mutex.protect t.translations_mu @@ fun () ->
  {
    verdict_hits = t.verdict_hits;
    verdict_misses = t.verdict_misses;
    verdict_entries = Hashtbl.length t.verdicts;
  }

let set_jit_cache_cap t cap =
  Mutex.protect t.translations_mu @@ fun () ->
  t.jit_cache_cap <- max 1 cap;
  evict_over_cap t

let jit_cache_stats t =
  Mutex.protect t.translations_mu @@ fun () ->
  {
    jit_hits = t.jit_hits;
    jit_misses = t.jit_misses;
    jit_evictions = t.jit_evictions;
    jit_entries = Hashtbl.length t.translations;
  }

(* Losslessly hex-format a digest: [%x] prints the int as unsigned
   63-bit, so 16 digits are injective — masking with [max_int] (the old
   bug) aliased values differing only in the top bit. *)
let digest_hex sign =
  Printf.sprintf "%016x" (sign : Vino_misfit.Sign.t :> int)

let bare_pcs bare =
  List.filter (fun pc -> bare.(pc)) (List.init (Array.length bare) Fun.id)
  |> List.map string_of_int |> String.concat ","

(* Stable, CI-diffable listing of the translation cache: sorted by digest,
   not hash-table iteration order. Entries with bare accesses render as
   "<digest>/b<their pcs>". *)
let translation_stats t =
  Mutex.protect t.translations_mu @@ fun () ->
  Hashtbl.fold
    (fun (sign, bare) c acc ->
      ( (digest_hex sign
         ^ match bare with None -> "" | Some b -> "/b" ^ bare_pcs b),
        Vino_vm.Jit.block_count c.tr,
        Vino_vm.Jit.fused_pairs c.tr )
      :: acc)
    t.translations []
  |> List.sort compare

let register_kcall t ~name ?callable impl =
  Kcall.register t.registry ~name ?callable impl

let set_callable t id callable = Kcall.set_callable t.registry id callable

let seal ?verify t obj =
  let verifier =
    Option.map
      (fun (c : Vino_verify.Verify.config) ->
        match c.callable with
        | Some _ -> c
        | None -> { c with callable = Some (Kcall.callable t.registry) })
      verify
  in
  Vino_misfit.Image.seal ?verifier ~key:t.key obj
let seal_unsafe t obj = Vino_misfit.Image.seal_unsafe ~key:t.key obj
let run t = Engine.run t.engine
let now_us t = Engine.now_us t.engine

let audit_event t event = Audit.record t.audit ~now_us:(now_us t) event

let on_snapshot t f = t.snap_savers <- f :: t.snap_savers

(* Kept only for [hostbench/workloads.ml]; see kernel.mli. *)
type strategy = Txn_undo

let set_strategy (_ : t) Txn_undo = ()

type snap = { owner : t; restores : (unit -> unit) list }

let snapshot t =
  if Vino_txn.Txn.live t.txn_mgr > 0 then
    invalid_arg
      "Kernel.snapshot: refused mid-transaction (live transactions would \
       fork parked continuations)";
  if Engine.has_run t.engine then
    invalid_arg
      "Kernel.snapshot: engine has already run; snapshot a freshly built \
       kernel before driving it";
  (* rev_map replays savers oldest-first: the engine rewinds before any
     subsystem state is laid back down *)
  { owner = t; restores = List.rev_map (fun f -> f ()) t.snap_savers }

let restore t s =
  if s.owner != t then
    invalid_arg "Kernel.restore: snapshot belongs to a different kernel";
  List.iter (fun f -> f ()) s.restores

let make_lock t ?policy ?timeout ~name () =
  let lock =
    Vino_txn.Lock.create t.engine ~wheel:t.wheel ?policy ?timeout ~name ()
  in
  on_snapshot t (Vino_txn.Lock.saver lock);
  lock

let graft_lock t ~timeout ~name ~kcall =
  let lock = make_lock t ~timeout ~name () in
  let (_ : Kcall.fn) =
    register_kcall t ~name:kcall (fun ctx ->
        match ctx.Kcall.txn with
        | None -> Kcall.abort (kcall ^ " outside a transaction")
        | Some txn -> (
            match Vino_txn.Txn.acquire_lock txn lock Exclusive with
            | Ok () -> Kcall.ok
            | Error reason -> Kcall.abort reason))
  in
  lock
