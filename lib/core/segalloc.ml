module Mem = Vino_vm.Mem

type t = {
  base : int;
  size : int;
  (* free.(k) = addresses of free blocks of size [min_block lsl k] *)
  free : (int, unit) Hashtbl.t array;
  mutable allocated : (int, int) Hashtbl.t; (* address -> order *)
  mutable used : int;
}

let min_block = 8
let min_order_size = min_block

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let order_count size =
  let rec go k s = if s >= size then k + 1 else go (k + 1) (s * 2) in
  go 0 min_order_size

let order_of_size size =
  let rec go k s = if s >= size then k else go (k + 1) (s * 2) in
  go 0 min_order_size

let block_size order = min_block lsl order

let create ~base ~size =
  if not (is_power_of_two size) || size < min_block then
    invalid_arg "Segalloc.create: size must be a power of two >= 8";
  if base mod size <> 0 then
    invalid_arg "Segalloc.create: base must be size-aligned";
  let orders = order_count size in
  let t =
    {
      base;
      size;
      free = Array.init orders (fun _ -> Hashtbl.create 8);
      allocated = Hashtbl.create 16;
      used = 0;
    }
  in
  Hashtbl.replace t.free.(orders - 1) base ();
  t

let rec take_block t order =
  if order >= Array.length t.free then None
  else
    let bucket = t.free.(order) in
    match Hashtbl.fold (fun addr () _ -> Some addr) bucket None with
    | Some addr ->
        Hashtbl.remove bucket addr;
        Some addr
    | None -> (
        (* split a larger block *)
        match take_block t (order + 1) with
        | None -> None
        | Some addr ->
            Hashtbl.replace t.free.(order) (addr + block_size order) ();
            Some addr)

let alloc t words =
  if words <= 0 then invalid_arg "Segalloc.alloc: need a positive size";
  let order = order_of_size (max words min_block) in
  if order >= Array.length t.free then Error `No_memory
  else
    match take_block t order with
    | None -> Error `No_memory
    | Some addr ->
        Hashtbl.replace t.allocated addr order;
        t.used <- t.used + block_size order;
        Ok (Mem.segment ~base:addr ~size:(block_size order))

let buddy_of t addr order =
  let offset = addr - t.base in
  t.base + (offset lxor block_size order)

let free t (seg : Mem.segment) =
  match Hashtbl.find_opt t.allocated seg.Mem.base with
  | None -> invalid_arg "Segalloc.free: segment not allocated here"
  | Some order ->
      if block_size order <> seg.Mem.size then
        invalid_arg "Segalloc.free: segment size mismatch";
      Hashtbl.remove t.allocated seg.Mem.base;
      t.used <- t.used - seg.Mem.size;
      (* coalesce with free buddies as far as possible *)
      let rec give_back addr order =
        if order = Array.length t.free - 1 then
          Hashtbl.replace t.free.(order) addr ()
        else
          let buddy = buddy_of t addr order in
          if Hashtbl.mem t.free.(order) buddy then begin
            Hashtbl.remove t.free.(order) buddy;
            give_back (min addr buddy) (order + 1)
          end
          else Hashtbl.replace t.free.(order) addr ()
      in
      give_back seg.Mem.base order

let free_words t = t.size - t.used
let used_words t = t.used

let blocks t =
  Hashtbl.fold
    (fun addr order acc ->
      Mem.segment ~base:addr ~size:(block_size order) :: acc)
    t.allocated []

(* ------------------------- snapshot / restore ------------------------- *)

(* [take_block] picks the first free block via [Hashtbl.fold], which is
   bucket-order sensitive — so the snapshot must preserve bucket structure
   exactly, not just the key set. [Hashtbl.copy] copies structure
   verbatim, and copy-of-copy is structurally identical, so a restored
   allocator replays the same allocation addresses a fresh one would. *)

type snap = {
  s_free : (int, unit) Hashtbl.t array;
  s_allocated : (int, int) Hashtbl.t;
  s_used : int;
}

let snapshot t =
  {
    s_free = Array.map Hashtbl.copy t.free;
    s_allocated = Hashtbl.copy t.allocated;
    s_used = t.used;
  }

let restore t s =
  Array.iteri (fun k bucket -> t.free.(k) <- Hashtbl.copy bucket) s.s_free;
  t.allocated <- Hashtbl.copy s.s_allocated;
  t.used <- s.s_used
