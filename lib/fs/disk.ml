module Engine = Vino_sim.Engine
module Waitq = Vino_sim.Waitq

(* The drive's geometry. *)
let min_seek_us = 1_000. (* track-to-track *)
let avg_seek_us = 9_500. (* at half-stroke; the profile grows as sqrt *)
let avg_rotation_us = 5_555. (* half a revolution at 5400 RPM: ~5.6 ms *)
let transfer_us_per_block = 800. (* one 4 KB block *)
let blocks = 270_000 (* 1080 MB of 4 KB blocks *)

type scheduling = Fifo | Elevator

type kind = Read | Write

type request = { kind : kind; block : int; on_complete : unit -> unit }

type t = {
  scheduling : scheduling;
  mutable queue : request list; (* head is next to serve *)
  work : Waitq.t;
  mutable head_block : int;
  mutable served : int;
  mutable writes : int;
  mutable sequential : int;
}

let cycles_of_us = Vino_vm.Costs.cycles_of_us

let service_time t ~block =
  if block = t.head_block + 1 || block = t.head_block then
    cycles_of_us transfer_us_per_block
  else
    (* square-root seek profile, calibrated so the mean random seek
       (distance fraction ~0.5) equals the drive's average seek time *)
    let distance =
      float_of_int (abs (block - t.head_block)) /. float_of_int blocks
    in
    let seek =
      min_seek_us +. ((avg_seek_us -. min_seek_us) *. sqrt (distance /. 0.5))
    in
    cycles_of_us (seek +. avg_rotation_us +. transfer_us_per_block)

let pick_next t =
  match t.scheduling with
  | Fifo -> (
      match t.queue with
      | [] -> None
      | r :: rest ->
          t.queue <- rest;
          Some r)
  | Elevator -> (
      (* serve the request closest to the head, sweeping upward first *)
      match t.queue with
      | [] -> None
      | _ ->
          let upward, downward =
            List.partition (fun r -> r.block >= t.head_block) t.queue
          in
          let best =
            match
              List.sort (fun a b -> compare a.block b.block) upward
            with
            | r :: _ -> r
            | [] -> (
                match
                  List.sort (fun a b -> compare b.block a.block) downward
                with
                | r :: _ -> r
                | [] -> assert false)
          in
          t.queue <- List.filter (fun r -> r != best) t.queue;
          Some best)

let rec disk_process t () =
  match pick_next t with
  | None ->
      Waitq.wait t.work;
      disk_process t ()
  | Some r ->
      let cost = service_time t ~block:r.block in
      if r.block = t.head_block + 1 || r.block = t.head_block then
        t.sequential <- t.sequential + 1;
      Engine.delay cost;
      t.head_block <- r.block;
      t.served <- t.served + 1;
      (match r.kind with Write -> t.writes <- t.writes + 1 | Read -> ());
      r.on_complete ();
      disk_process t ()

let create engine ?(scheduling = Fifo) () =
  let t =
    {
      scheduling;
      queue = [];
      work = Waitq.create engine;
      head_block = 0;
      served = 0;
      writes = 0;
      sequential = 0;
    }
  in
  ignore (Engine.spawn engine ~name:"disk" (fun () -> disk_process t ()));
  t

let submit t kind ~block ~on_complete =
  if block < 0 || block >= blocks then
    invalid_arg "Disk.submit: block out of range";
  t.queue <- t.queue @ [ { kind; block; on_complete } ];
  ignore (Waitq.signal t.work)

let blocking t kind ~block =
  Engine.suspend (fun wake -> submit t kind ~block ~on_complete:(fun () -> wake ()))

let read t ~block = blocking t Read ~block
let write t ~block = blocking t Write ~block

let saver t () =
  let restore_work = Waitq.saver t.work () in
  let queue = t.queue
  and head_block = t.head_block
  and served = t.served
  and writes = t.writes
  and sequential = t.sequential in
  fun () ->
    restore_work ();
    t.queue <- queue;
    t.head_block <- head_block;
    t.served <- served;
    t.writes <- writes;
    t.sequential <- sequential
let requests_served t = t.served
let writes_served t = t.writes
let sequential_hits t = t.sequential
