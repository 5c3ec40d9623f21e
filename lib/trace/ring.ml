type 'a t = {
  cap : int;
  buf : 'a option array;
  mutable head : int; (* next write slot *)
  mutable len : int;
  mutable n_total : int;
  mutable n_dropped : int;
  (* For [saver]: slot writes ever made ([clear] counts as [cap]; never
     rewound), the capture the slots last matched, and [writes] then. *)
  mutable writes : int;
  mutable synced : 'a option array;
  mutable synced_at : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  {
    cap = capacity;
    buf = Array.make capacity None;
    head = 0;
    len = 0;
    n_total = 0;
    n_dropped = 0;
    writes = 0;
    synced = [||];
    synced_at = 0;
  }

let capacity t = t.cap
let length t = t.len
let total t = t.n_total
let dropped t = t.n_dropped

let push t x =
  t.buf.(t.head) <- Some x;
  t.head <- (t.head + 1) mod t.cap;
  t.writes <- t.writes + 1;
  if t.len = t.cap then t.n_dropped <- t.n_dropped + 1
  else t.len <- t.len + 1;
  t.n_total <- t.n_total + 1

let iter f t =
  let start = (t.head - t.len + t.cap) mod t.cap in
  for k = 0 to t.len - 1 do
    match t.buf.((start + k) mod t.cap) with
    | Some x -> f x
    | None -> ()
  done

let fold f init t =
  let acc = ref init in
  iter (fun x -> acc := f !acc x) t;
  !acc

let to_list t = List.rev (fold (fun acc x -> x :: acc) [] t)

let clear t =
  Array.fill t.buf 0 t.cap None;
  t.writes <- t.writes + t.cap;
  t.head <- 0;
  t.len <- 0;
  t.n_total <- 0;
  t.n_dropped <- 0

(* A restore re-copies only the slots written since the buffer last
   matched this capture: once it has, every later write is a push at the
   captured head onward. The whole buffer is copied when the slots last
   matched no capture or another one (a first restore, or one after a
   restore of another capture) and after [cap] or more writes. *)
let saver t () =
  let buf = Array.copy t.buf
  and head = t.head
  and len = t.len
  and n_total = t.n_total
  and n_dropped = t.n_dropped in
  fun () ->
    let since = t.writes - t.synced_at in
    if t.synced != buf || since >= t.cap then Array.blit buf 0 t.buf 0 t.cap
    else
      for k = 0 to since - 1 do
        let i = (head + k) mod t.cap in
        t.buf.(i) <- buf.(i)
      done;
    t.synced <- buf;
    t.synced_at <- t.writes;
    t.head <- head;
    t.len <- len;
    t.n_total <- n_total;
    t.n_dropped <- n_dropped
