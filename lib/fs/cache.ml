(* Intrusive doubly-linked LRU list plus a hash index. *)

(* Counter handles, interned once at load: the emit sites below
   bump a flat per-sink array instead of hashing a dotted name. *)
let h_cache_hits = Vino_trace.Counters.handle "fs.cache_hits"
let h_cache_misses = Vino_trace.Counters.handle "fs.cache_misses"

type node = {
  block : int;
  mutable dirty : bool;
  mutable prev : node option; (* towards LRU end *)
  mutable next : node option; (* towards MRU end *)
}

type evicted = { block : int; dirty : bool }

type t = {
  cap : int;
  index : (int, node) Hashtbl.t;
  mutable lru : node option;
  mutable mru : node option;
  mutable dirty_fifo : int list; (* dirtied order, oldest first *)
  mutable n_hits : int;
  mutable n_misses : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Cache.create: capacity must be positive";
  fun () ->
    {
      cap = capacity;
      index = Hashtbl.create (2 * capacity);
      lru = None;
      mru = None;
      dirty_fifo = [];
      n_hits = 0;
      n_misses = 0;
    }

let capacity t = t.cap
let length t = Hashtbl.length t.index

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.lru <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.mru <- node.prev);
  node.prev <- None;
  node.next <- None

let push_mru t node =
  node.prev <- t.mru;
  node.next <- None;
  (match t.mru with Some m -> m.next <- Some node | None -> t.lru <- Some node);
  t.mru <- Some node

let mem t block = Hashtbl.mem t.index block

let lookup t block =
  match Hashtbl.find_opt t.index block with
  | Some node ->
      t.n_hits <- t.n_hits + 1;
      Vino_trace.Trace.incr_h h_cache_hits;
      unlink t node;
      push_mru t node;
      true
  | None ->
      t.n_misses <- t.n_misses + 1;
      Vino_trace.Trace.incr_h h_cache_misses;
      false

let note_dirtied t block =
  if not (List.mem block t.dirty_fifo) then
    t.dirty_fifo <- t.dirty_fifo @ [ block ]

let remove t block =
  match Hashtbl.find_opt t.index block with
  | None -> ()
  | Some node ->
      unlink t node;
      Hashtbl.remove t.index block

let insert t ?(dirty = false) block =
  if dirty then note_dirtied t block;
  match Hashtbl.find_opt t.index block with
  | Some node ->
      unlink t node;
      push_mru t node;
      if dirty then node.dirty <- true;
      None
  | None ->
      let evicted =
        if Hashtbl.length t.index >= t.cap then
          match t.lru with
          | Some (victim : node) ->
              unlink t victim;
              Hashtbl.remove t.index victim.block;
              if victim.dirty then
                t.dirty_fifo <-
                  List.filter (fun b -> b <> victim.block) t.dirty_fifo;
              Some { block = victim.block; dirty = victim.dirty }
          | None -> None
        else None
      in
      let node = { block; dirty; prev = None; next = None } in
      Hashtbl.replace t.index block node;
      push_mru t node;
      evicted

let mark_dirty t block =
  match Hashtbl.find_opt t.index block with
  | Some node ->
      node.dirty <- true;
      note_dirtied t block
  | None -> ()

let is_dirty t block =
  match Hashtbl.find_opt t.index block with
  | Some node -> node.dirty
  | None -> false

let dirty_blocks t =
  List.filter (fun b -> is_dirty t b) t.dirty_fifo

let clean t block =
  t.dirty_fifo <- List.filter (fun b -> b <> block) t.dirty_fifo;
  match Hashtbl.find_opt t.index block with
  | Some node -> node.dirty <- false
  | None -> ()

let lru_order t =
  let rec walk acc = function
    | None -> List.rev acc
    | Some (node : node) -> walk (node.block :: acc) node.next
  in
  walk [] t.lru

let hits t = t.n_hits
let misses t = t.n_misses

(* Re-inserting captured blocks LRU-first rebuilds the same recency
   order with fresh nodes (the intrusive list cannot be shared with a
   live capture). Restore cannot evict: the captured population was
   within capacity by construction. *)
let saver t () =
  let blocks = List.map (fun b -> (b, is_dirty t b)) (lru_order t)
  and dirty_fifo = t.dirty_fifo
  and n_hits = t.n_hits
  and n_misses = t.n_misses in
  fun () ->
    Hashtbl.reset t.index;
    t.lru <- None;
    t.mru <- None;
    t.dirty_fifo <- [];
    List.iter (fun (b, dirty) -> ignore (insert t ~dirty b)) blocks;
    t.dirty_fifo <- dirty_fifo;
    t.n_hits <- n_hits;
    t.n_misses <- n_misses
