(* Deterministic domain pool.

   Work distribution is dynamic (an atomic next-item counter), result
   placement is static (slot array indexed by item position, read back in
   index order), so the output never depends on scheduling. The caller
   participates in every batch; [domains - 1] long-lived workers block on
   a condition variable between batches. A caller with a trace sink
   installed runs its items serially under that sink instead. *)

module Trace = Vino_trace.Trace

type batch = { run : unit -> unit }

type t = {
  size : int; (* total members, including the caller *)
  mutex : Mutex.t;
  work_ready : Condition.t;
  mutable batch : batch option;
  mutable generation : int; (* bumped when a new batch is published *)
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  in_batch : bool Atomic.t; (* reentrancy guard *)
}

let worker_main t =
  let rec loop last_gen =
    Mutex.lock t.mutex;
    while t.generation = last_gen && not t.stop do
      Condition.wait t.work_ready t.mutex
    done;
    let gen = t.generation and b = t.batch and stop = t.stop in
    Mutex.unlock t.mutex;
    if not stop then begin
      (match b with Some b -> b.run () | None -> ());
      loop gen
    end
  in
  loop 0

let create ?domains () =
  let size =
    match domains with
    | Some d -> max 1 d
    | None -> Domain.recommended_domain_count ()
  in
  let t =
    {
      size;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      batch = None;
      generation = 0;
      stop = false;
      workers = [];
      in_batch = Atomic.make false;
    }
  in
  if size > 1 then
    t.workers <-
      List.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_main t));
  t

let domains t = t.size

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let map ?pool f items =
  match pool with
  | None -> List.map f items
  | Some t when t.size = 1 || t.stop || Trace.enabled () -> List.map f items
  | Some t ->
      if not (Atomic.compare_and_set t.in_batch false true) then
        invalid_arg "Pool.map: nested fan-out on the same pool";
      Fun.protect
        ~finally:(fun () -> Atomic.set t.in_batch false)
        (fun () ->
          let arr = Array.of_list items in
          let n = Array.length arr in
          if n = 0 then []
          else begin
            let slots = Array.make n None in
            let errors = Array.make n None in
            let next = Atomic.make 0 in
            let completed = Atomic.make 0 in
            let done_mutex = Mutex.create () in
            let done_cond = Condition.create () in
            let run () =
              let rec claim () =
                let i = Atomic.fetch_and_add next 1 in
                if i < n then begin
                  (match f arr.(i) with
                  | v -> slots.(i) <- Some v
                  | exception e ->
                      errors.(i) <- Some (e, Printexc.get_raw_backtrace ()));
                  if Atomic.fetch_and_add completed 1 = n - 1 then begin
                    Mutex.lock done_mutex;
                    Condition.broadcast done_cond;
                    Mutex.unlock done_mutex
                  end;
                  claim ()
                end
              in
              claim ()
            in
            Mutex.lock t.mutex;
            t.batch <- Some { run };
            t.generation <- t.generation + 1;
            Condition.broadcast t.work_ready;
            Mutex.unlock t.mutex;
            run ();
            Mutex.lock done_mutex;
            while Atomic.get completed < n do
              Condition.wait done_cond done_mutex
            done;
            Mutex.unlock done_mutex;
            Array.iter
              (function
                | Some (e, bt) -> Printexc.raise_with_backtrace e bt
                | None -> ())
              errors;
            Array.to_list
              (Array.map
                 (function
                   | Some v -> v
                   | None -> assert false (* completed = n, no errors *))
                 slots)
          end)
