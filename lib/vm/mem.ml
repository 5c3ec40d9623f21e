type t = { data : int array }
type segment = { base : int; size : int }

exception Fault of { addr : int; write : bool }

let create words =
  if words <= 0 then invalid_arg "Mem.create: size must be positive";
  { data = Array.make words 0 }

let size t = Array.length t.data

let load t addr =
  if addr < 0 || addr >= Array.length t.data then
    raise (Fault { addr; write = false })
  else t.data.(addr)

let store t addr v =
  if addr < 0 || addr >= Array.length t.data then
    raise (Fault { addr; write = true })
  else t.data.(addr) <- v

(* For callers that can prove the address in bounds — the JIT's
   confined sandboxed accesses, where [sandbox] plus a validated segment
   makes the bounds argument airtight. Not for code acting on behalf of
   an unproven graft address. *)
let unsafe_load t addr = Array.unsafe_get t.data addr
let unsafe_store t addr v = Array.unsafe_set t.data addr v

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let segment ~base ~size =
  if not (is_power_of_two size) then
    invalid_arg "Mem.segment: size must be a power of two";
  if base < 0 || base land (size - 1) <> 0 then
    invalid_arg "Mem.segment: base must be size-aligned";
  { base; size }

let in_segment seg addr = addr >= seg.base && addr < seg.base + seg.size
let sandbox seg addr = seg.base lor (addr land (seg.size - 1))

(* Validate a whole range up front so the bulk operations below are
   atomic: a faulting blit/fill must leave memory untouched, not mutate a
   prefix before hitting the out-of-range tail. The fault carries the
   first address the old word-at-a-time loop would have rejected. *)
let check_range t ~write addr len =
  if len > 0 then
    let size = Array.length t.data in
    if addr < 0 then raise (Fault { addr; write })
    else if addr + len > size then raise (Fault { addr = max addr size; write })

let blit_in ?len t addr src =
  let len = match len with Some n -> n | None -> Array.length src in
  if len < 0 || len > Array.length src then invalid_arg "Mem.blit_in";
  check_range t ~write:true addr len;
  for k = 0 to len - 1 do
    t.data.(addr + k) <- src.(k)
  done

let blit_out t addr len =
  check_range t ~write:false addr len;
  Array.init len (fun k -> t.data.(addr + k))

let fill t addr len v =
  check_range t ~write:true addr len;
  if len > 0 then Array.fill t.data addr len v
