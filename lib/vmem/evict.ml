module Engine = Vino_sim.Engine
module Kernel = Vino_core.Kernel
module Graft_point = Vino_core.Graft_point

type t = {
  kernel : Kernel.t;
  frames : Frame.table;
  graft_support : bool;
  vases : (int, Vas.t) Hashtbl.t;
  mutable queue : int list; (* frame indices, head = eviction candidate *)
  mutable n_evictions : int;
  mutable n_overrules : int;
  mutable n_invalid : int;
}

(* Global selection work: clock scan plus page-queue manipulation. The paper
   measures the whole default selection at ~39 us on a 512-page VAS. *)
let select_base_cost = Vino_txn.Tcosts.us 38.5
let per_examination_cost = Vino_txn.Tcosts.us 0.05

(* A fault charges a representative ~16 ms disk access. *)
let page_in_cost = Vino_txn.Tcosts.us 16_000.

let create kernel ~frames ?(graft_support = true) () =
  let t =
    {
      kernel;
      frames;
      graft_support;
      vases = Hashtbl.create 8;
      queue = [];
      n_evictions = 0;
      n_overrules = 0;
      n_invalid = 0;
    }
  in
  Kernel.on_snapshot kernel (Frame.saver frames);
  Kernel.on_snapshot kernel (fun () ->
      let vases = Hashtbl.copy t.vases
      and queue = t.queue
      and n_evictions = t.n_evictions
      and n_overrules = t.n_overrules
      and n_invalid = t.n_invalid in
      fun () ->
        Hashtbl.reset t.vases;
        Hashtbl.iter (Hashtbl.replace t.vases) vases;
        t.queue <- queue;
        t.n_evictions <- n_evictions;
        t.n_overrules <- n_overrules;
        t.n_invalid <- n_invalid);
  t

let kernel t = t.kernel
let register_vas t vas = Hashtbl.replace t.vases (Vas.id vas) vas
let vas_of t vid = Hashtbl.find_opt t.vases vid
let free_frames t = Frame.free_count t.frames
let evictions t = t.n_evictions
let graft_overrules t = t.n_overrules
let invalid_suggestions t = t.n_invalid
let queue_order t = t.queue

(* Second-chance scan: referenced frames get their bit cleared and move to
   the tail; wired frames are skipped. *)
let clock_select t =
  let examined = ref 0 in
  let limit = 2 * List.length t.queue in
  let rec scan () =
    if !examined > limit then None
    else
      match t.queue with
      | [] -> None
      | idx :: rest -> (
          incr examined;
          let f = Frame.get t.frames idx in
          if f.Frame.wired then begin
            t.queue <- rest @ [ idx ];
            scan ()
          end
          else if f.Frame.referenced then begin
            f.Frame.referenced <- false;
            t.queue <- rest @ [ idx ];
            scan ()
          end
          else
            match f.Frame.owner with
            | None ->
                (* stale entry for a freed frame *)
                t.queue <- rest;
                scan ()
            | Some _ -> Some f)
  in
  let result = scan () in
  Engine.delay (select_base_cost + (!examined * per_examination_cost));
  result

let evictable_candidates vas ~except =
  Vas.resident_pages vas
  |> List.filter (fun p -> p <> except && not (Vas.wired vas ~vpage:p))

(* Cao's swap: the original victim takes the queue slot the replacement
   occupied; the replacement leaves the queue with its eviction. *)
let cao_swap t ~victim_idx ~replacement_idx =
  t.queue <-
    List.filter (fun k -> k <> victim_idx) t.queue
    |> List.map (fun k -> if k = replacement_idx then victim_idx else k)

let select_replacement t ~cred =
  match clock_select t with
  | None -> Error `Nothing_evictable
  | Some victim_frame -> (
      match victim_frame.Frame.owner with
      | None -> Error `Nothing_evictable
      | Some owner -> (
          if not t.graft_support then Ok victim_frame
          else
            let vpage = owner.Frame.vpage in
            match vas_of t owner.Frame.vas_id with
            | None -> Ok victim_frame
            | Some vas ->
                let point = Vas.evict_point vas in
                let candidates =
                  if Graft_point.grafted point then
                    evictable_candidates vas ~except:vpage
                  else []
                in
                let choice =
                  Graft_point.invoke point t.kernel ~cred
                    { Vas.victim = vpage; candidates }
                in
                if choice = vpage then Ok victim_frame
                else
                  (* the kernel verifies the suggestion: a resident,
                     unwired page of this VAS *)
                  match Vas.frame_of vas choice with
                  | Some replacement when not (Vas.wired vas ~vpage:choice)
                    ->
                      t.n_overrules <- t.n_overrules + 1;
                      cao_swap t ~victim_idx:victim_frame.Frame.index
                        ~replacement_idx:replacement.Frame.index;
                      Ok replacement
                  | Some _ | None ->
                      t.n_invalid <- t.n_invalid + 1;
                      Ok victim_frame))

let reclaim t frame =
  let owner = frame.Frame.owner in
  (match owner with
  | Some o -> (
      match vas_of t o.Frame.vas_id with
      | Some vas -> Vas.unmap vas ~vpage:o.Frame.vpage
      | None -> ())
  | None -> ());
  t.queue <- List.filter (fun k -> k <> frame.Frame.index) t.queue;
  Frame.release t.frames frame;
  t.n_evictions <- t.n_evictions + 1

let evict_one t ~cred =
  Result.map
    (fun frame ->
      reclaim t frame;
      frame)
    (select_replacement t ~cred)

(* take a free frame, running the two-level eviction when none is free *)
let allocate_frame t ~cred =
  let rec get () =
    match Frame.allocate t.frames with
    | Ok f -> Ok f
    | Error `None_free -> (
        match evict_one t ~cred with
        | Ok _ -> get ()
        | Error `Nothing_evictable -> Error `Nothing_evictable)
  in
  get ()

(* map a freshly allocated frame and enter it in the global page queue *)
let attach t vas ~vpage frame =
  Vas.map vas ~vpage frame;
  t.queue <- t.queue @ [ frame.Frame.index ]

let touch t vas ~vpage =
  if Vas.is_resident vas vpage then begin
    Vas.reference vas ~vpage;
    `Hit
  end
  else begin
    Vas.add_fault vas;
    let cred = Vino_core.Cred.root in
    match allocate_frame t ~cred with
    | Error `Nothing_evictable ->
        failwith "Evict.touch: out of frames with nothing evictable"
    | Ok frame ->
        attach t vas ~vpage frame;
        Engine.delay page_in_cost;
        `Fault
  end
