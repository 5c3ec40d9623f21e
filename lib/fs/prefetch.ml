module Engine = Vino_sim.Engine
module Waitq = Vino_sim.Waitq

type t = {
  cache : Cache.t;
  disk : Disk.t;
  buffer_budget : int;
  mutable queue : int list;
  work : Waitq.t;
  mutable n_inflight : int;
  mutable unconsumed : int; (* prefetched blocks not yet read by the app *)
  mutable n_issued : int;
  mutable n_dropped : int;
}

(* disk reads the daemon keeps outstanding at once *)
let max_inflight = 4

let rec daemon t () =
  if
    t.queue = [] || t.n_inflight >= max_inflight
    || t.unconsumed + t.n_inflight >= t.buffer_budget
  then begin
    Waitq.wait t.work;
    daemon t ()
  end
  else begin
    match t.queue with
    | [] -> daemon t ()
    | block :: rest ->
        t.queue <- rest;
        if Cache.mem t.cache block then begin
          t.n_dropped <- t.n_dropped + 1;
          daemon t ()
        end
        else begin
          t.n_inflight <- t.n_inflight + 1;
          Disk.submit t.disk Disk.Read ~block ~on_complete:(fun () ->
              t.n_inflight <- t.n_inflight - 1;
              t.unconsumed <- t.unconsumed + 1;
              (match Cache.insert t.cache block with
              | Some { Cache.block = victim; dirty = true } ->
                  Disk.submit t.disk Disk.Write ~block:victim
                    ~on_complete:(fun () -> ())
              | Some _ | None -> ());
              t.n_issued <- t.n_issued + 1;
              ignore (Waitq.signal t.work));
          daemon t ()
        end
  end

let create engine ~cache ~disk ?(buffer_budget = 64) () =
  let t =
    {
      cache;
      disk;
      buffer_budget;
      queue = [];
      work = Waitq.create engine;
      n_inflight = 0;
      unconsumed = 0;
      n_issued = 0;
      n_dropped = 0;
    }
  in
  ignore (Engine.spawn engine ~name:"prefetchd" (fun () -> daemon t ()));
  t

let push t blocks =
  let fresh = List.filter (fun b -> not (Cache.mem t.cache b)) blocks in
  t.n_dropped <- t.n_dropped + (List.length blocks - List.length fresh);
  if fresh <> [] then begin
    t.queue <- t.queue @ fresh;
    ignore (Waitq.signal t.work)
  end

let note_consumed t _block =
  if t.unconsumed > 0 then begin
    t.unconsumed <- t.unconsumed - 1;
    ignore (Waitq.signal t.work)
  end

let pending t = List.length t.queue
let issued t = t.n_issued
let dropped t = t.n_dropped
let in_flight t = t.n_inflight

let saver t () =
  let restore_work = Waitq.saver t.work () in
  let queue = t.queue
  and n_inflight = t.n_inflight
  and unconsumed = t.unconsumed
  and n_issued = t.n_issued
  and n_dropped = t.n_dropped in
  fun () ->
    restore_work ();
    t.queue <- queue;
    t.n_inflight <- n_inflight;
    t.unconsumed <- unconsumed;
    t.n_issued <- n_issued;
    t.n_dropped <- n_dropped
