(* Both sources hold slot numbers only. Until the first pop since
   [clear] the entries are exactly slots [0, nslots) in insertion order,
   which the first peek or pop sorts into the run. *)
type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable gens : int array;
  mutable values : 'a array;
  mutable free : int array; (* slots of popped entries, a stack *)
  mutable nfree : int;
  mutable nslots : int; (* slots handed out since [clear] *)
  mutable run : int array; (* the run's slots in pop order *)
  mutable rpos : int; (* the run's next entry; -1 until it is sorted *)
  mutable heap : int array; (* slots added since: a min-heap *)
  mutable hsize : int;
  mutable next_seq : int;
}

let create () =
  {
    keys = [||];
    seqs = [||];
    gens = [||];
    values = [||];
    free = [||];
    nfree = 0;
    nslots = 0;
    run = [||];
    rpos = -1;
    heap = [||];
    hsize = 0;
    next_seq = 0;
  }

let length t =
  if t.rpos < 0 then t.nslots else Array.length t.run - t.rpos + t.hsize

let is_empty t = length t = 0

let precedes t a b =
  let ka = t.keys.(a) and kb = t.keys.(b) in
  ka < kb || (ka = kb && t.seqs.(a) < t.seqs.(b))

(* Move parents down until slot [s] fits the hole at [k]. *)
let rec sift_up t s k =
  let parent = (k - 1) / 2 in
  if k > 0 && precedes t s t.heap.(parent) then begin
    t.heap.(k) <- t.heap.(parent);
    sift_up t s parent
  end
  else t.heap.(k) <- s

let rec sift_down t s k =
  let l = (2 * k) + 1 in
  let c =
    if l + 1 < t.hsize && precedes t t.heap.(l + 1) t.heap.(l) then l + 1
    else l
  in
  if c < t.hsize && precedes t t.heap.(c) s then begin
    t.heap.(k) <- t.heap.(c);
    sift_down t s c
  end
  else t.heap.(k) <- s

let grow t v =
  let extend a x = Array.append a (Array.make (max 16 (Array.length a)) x) in
  t.keys <- extend t.keys 0;
  t.seqs <- extend t.seqs 0;
  t.gens <- extend t.gens 0;
  t.free <- extend t.free 0;
  t.heap <- extend t.heap 0;
  t.values <- extend t.values v

let add t ~key ~gen v =
  let s =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      t.free.(t.nfree)
    end
    else begin
      if t.nslots = Array.length t.keys then grow t v;
      t.nslots <- t.nslots + 1;
      t.nslots - 1
    end
  in
  t.keys.(s) <- key;
  t.seqs.(s) <- t.next_seq;
  t.gens.(s) <- gen;
  t.values.(s) <- v;
  t.next_seq <- t.next_seq + 1;
  if t.rpos >= 0 then begin
    t.hsize <- t.hsize + 1;
    sift_up t s (t.hsize - 1)
  end

(* The slot that pops next, or -1 on an empty queue: the run's head
   unless the heap's head has a strictly smaller key (every heap entry is
   younger). *)
let head t =
  if is_empty t then -1
  else begin
    if t.rpos < 0 then begin
      t.run <- Array.init t.nslots Fun.id;
      Array.stable_sort (fun a b -> compare t.keys.(a) t.keys.(b)) t.run;
      t.rpos <- 0
    end;
    let r = if t.rpos < Array.length t.run then t.run.(t.rpos) else -1 in
    if r >= 0 && (t.hsize = 0 || t.keys.(r) <= t.keys.(t.heap.(0))) then r
    else t.heap.(0)
  end

let key t s = t.keys.(s)
let gen t s = t.gens.(s)

let head_exn t =
  let s = head t in
  if s < 0 then invalid_arg "Pqueue: empty queue" else s

let peek_key t = t.keys.(head_exn t)
let peek_gen t = t.gens.(head_exn t)

let pop_head t s =
  if t.rpos < Array.length t.run && t.run.(t.rpos) = s then
    t.rpos <- t.rpos + 1
  else begin
    t.hsize <- t.hsize - 1;
    if t.hsize > 0 then sift_down t t.heap.(t.hsize) 0
  end;
  t.free.(t.nfree) <- s;
  t.nfree <- t.nfree + 1;
  t.values.(s)

let pop t = pop_head t (head_exn t)

let clear t =
  t.nfree <- 0;
  t.nslots <- 0;
  t.rpos <- -1;
  t.run <- [||];
  t.hsize <- 0;
  t.next_seq <- 0

(* A pop leaves its slot free or has an [add] reuse it. *)
let entries t =
  if t.nfree > 0 || t.next_seq > t.nslots then
    invalid_arg "Pqueue.entries: entries were popped";
  List.init t.nslots (fun s -> (t.keys.(s), t.values.(s)))
