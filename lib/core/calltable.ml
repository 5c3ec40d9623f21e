(* Open addressing with linear probing and tombstones. Slots hold:
   [-1] empty, [-2] tombstone, otherwise the stored id (ids are >= 0). *)

let empty = -1
let tombstone = -2

type t = {
  mutable slots : int array;
  mutable count : int;
  mutable dead : int; (* tombstones *)
  mutable probes : int;
  mutable lookups : int;
}

let make_slots n = Array.make n empty

let create ?(initial_slots = 64) () =
  {
    slots = make_slots initial_slots;
    count = 0;
    dead = 0;
    probes = 0;
    lookups = 0;
  }

let slot_for slots id = id * 2654435761 land max_int mod Array.length slots

let rec insert_raw slots id k =
  let k = k mod Array.length slots in
  if slots.(k) = empty then slots.(k) <- id
  else if slots.(k) = id then ()
  else insert_raw slots id (k + 1)

let resize t =
  let old = t.slots in
  t.slots <- make_slots (2 * Array.length old);
  t.dead <- 0;
  Array.iter
    (fun id -> if id >= 0 then insert_raw t.slots id (slot_for t.slots id))
    old

(* keep the table sparse (the paper's 10-15 cycle probes need it): resize
   beyond 1/4 occupancy, counting tombstones, which resizing clears *)
let maybe_resize t =
  if 4 * (t.count + t.dead + 1) > Array.length t.slots then resize t

let add t id =
  if id < 0 then invalid_arg "Calltable.add: ids must be non-negative";
  maybe_resize t;
  let n = Array.length t.slots in
  let start = slot_for t.slots id in
  (* the id may sit past a tombstone, so probe for it before inserting *)
  let rec present k =
    if t.slots.(k) = id then true
    else if t.slots.(k) = empty then false
    else present ((k + 1) mod n)
  in
  if not (present start) then begin
    let rec place k =
      if t.slots.(k) = empty || t.slots.(k) = tombstone then begin
        if t.slots.(k) = tombstone then t.dead <- t.dead - 1;
        t.slots.(k) <- id;
        t.count <- t.count + 1
      end
      else place ((k + 1) mod n)
    in
    place start
  end

let remove t id =
  let n = Array.length t.slots in
  let rec go k =
    if t.slots.(k) = id then begin
      t.slots.(k) <- tombstone;
      t.dead <- t.dead + 1;
      t.count <- t.count - 1
    end
    else if t.slots.(k) = empty then ()
    else go ((k + 1) mod n)
  in
  go (slot_for t.slots id)

let mem t id =
  t.lookups <- t.lookups + 1;
  let n = Array.length t.slots in
  let rec go k probes =
    let probes = probes + 1 in
    if t.slots.(k) = id then begin
      t.probes <- t.probes + probes;
      true
    end
    else if t.slots.(k) = empty then begin
      t.probes <- t.probes + probes;
      false
    end
    else go ((k + 1) mod n) probes
  in
  go (slot_for t.slots id) 0

let cardinal t = t.count
let load_factor t = float_of_int t.count /. float_of_int (Array.length t.slots)

let average_probes t =
  if t.lookups = 0 then 0.
  else float_of_int t.probes /. float_of_int t.lookups

(* [mem] mutates probes/lookups, so even read-only trials dirty the
   table; capture everything. *)
let saver t () =
  let slots = Array.copy t.slots
  and count = t.count
  and dead = t.dead
  and probes = t.probes
  and lookups = t.lookups in
  fun () ->
    t.slots <- Array.copy slots;
    t.count <- count;
    t.dead <- dead;
    t.probes <- probes;
    t.lookups <- lookups
