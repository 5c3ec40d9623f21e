module Trace = Vino_trace.Trace

(* Counter handles, interned once at load: the emit sites below
   bump a flat per-sink array instead of hashing a dotted name. *)
let h_procs_spawned = Vino_trace.Counters.handle "sim.procs_spawned"
let h_events_executed = Vino_trace.Counters.handle "sim.events_executed"
let h_proc_failures = Vino_trace.Counters.handle "sim.proc_failures"

exception Stopped

type proc = {
  id : int;
  name : string;
  mutable dead : bool;
  mutable kill_requested : bool;
  mutable interrupt : (exn -> unit) option;
      (* set while suspended: injects an exception into the continuation *)
}

type event = { mutable cancelled : bool; mutable thunk : unit -> unit }

type t = {
  mutable clock : int;
  queue : event Pqueue.t;
  (* Spawned processes, newest first; only [blocked] reads them. A spawn
     that finds the list at [sweep_at] entries ([nprocs] is its length)
     first drops the dead ones and resets the threshold to twice the
     survivors, at least [min_sweep]. Each sweep is paid for by the
     spawns since the last one: amortised O(1) per spawn, and a long
     run that finishes one process per served request keeps at most
     twice the processes live at the last sweep, or [min_sweep]. *)
  mutable procs : proc list;
  mutable nprocs : int;
  mutable sweep_at : int;
  mutable failures : (string * exn) list;
  mutable next_id : int;
  mutable has_run : bool;
}

type cancel = unit -> unit

type _ Effect.t +=
  | Delay : int -> unit Effect.t
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t
  | Self : proc Effect.t

let min_sweep = 64

let create () =
  {
    clock = 0;
    queue = Pqueue.create ();
    procs = [];
    nprocs = 0;
    sweep_at = min_sweep;
    failures = [];
    next_id = 0;
    has_run = false;
  }

let now t = t.clock
let now_us t = Vino_vm.Costs.us_of_cycles t.clock

let do_nothing () = ()

let at t time f =
  if time < t.clock then
    invalid_arg "Engine.at: cannot schedule in the past";
  let ev = { cancelled = false; thunk = f } in
  Pqueue.add t.queue ~key:time ev;
  fun () ->
    ev.cancelled <- true;
    (* drop the closure so cancelled events don't retain memory *)
    ev.thunk <- do_nothing

let after t delta f = at t (t.clock + delta) f

(* Schedule and discard the cancellation handle. *)
let schedule t time f =
  let (_ : cancel) = at t time f in
  ()

let proc_name p = p.name
let proc_id p = p.id
let alive p = not p.dead

let delay n = Effect.perform (Delay n)
let suspend f = Effect.perform (Suspend f)
let self () = Effect.perform Self

(* Run [f] as the body of process [p], handling its scheduling effects. *)
let start t p body =
  let open Effect.Deep in
  (* Resume a stored continuation from the event loop on behalf of [p]. *)
  let resuming k v =
    p.interrupt <- None;
    continue k v
  in
  let discontinuing k e =
    p.interrupt <- None;
    discontinue k e
  in
  let handle_delay n k =
    if p.kill_requested then discontinue k Stopped
    else begin
      let fired = ref false in
      let cancel =
        at t (t.clock + n) (fun () ->
            if not !fired then begin
              fired := true;
              resuming k ()
            end)
      in
      p.interrupt <-
        Some
          (fun e ->
            if not !fired then begin
              fired := true;
              cancel ();
              schedule t t.clock (fun () -> discontinuing k e)
            end)
    end
  in
  let handle_suspend f k =
    if p.kill_requested then discontinue k Stopped
    else begin
      let fired = ref false in
      p.interrupt <-
        Some
          (fun e ->
            if not !fired then begin
              fired := true;
              schedule t t.clock (fun () -> discontinuing k e)
            end);
      f (fun v ->
          if not !fired then begin
            fired := true;
            (* resume from the event loop, not the waker's stack *)
            schedule t t.clock (fun () -> resuming k v)
          end)
    end
  in
  let effc : type a. a Effect.t -> ((a, unit) continuation -> unit) option =
    function
    | Delay n -> Some (fun k -> handle_delay n k)
    | Suspend f -> Some (fun k -> handle_suspend f k)
    | Self -> Some (fun k -> continue k p)
    | _ -> None
  in
  let retc () = p.dead <- true in
  let exnc = function
    | Stopped -> p.dead <- true
    | e ->
        p.dead <- true;
        Trace.incr_h h_proc_failures;
        t.failures <- (p.name, e) :: t.failures
  in
  match_with
    (fun () -> if p.kill_requested then raise Stopped else body ())
    () { retc; exnc; effc }

let spawn t ?name body =
  let id = t.next_id in
  t.next_id <- id + 1;
  let name =
    match name with Some n -> n | None -> Printf.sprintf "proc-%d" id
  in
  let p =
    { id; name; dead = false; kill_requested = false; interrupt = None }
  in
  if t.nprocs >= t.sweep_at then begin
    t.procs <- List.filter alive t.procs;
    t.nprocs <- List.length t.procs;
    t.sweep_at <- max min_sweep (2 * t.nprocs)
  end;
  t.procs <- p :: t.procs;
  t.nprocs <- t.nprocs + 1;
  Trace.incr_h h_procs_spawned;
  schedule t t.clock (fun () -> start t p body);
  p

let kill _t p =
  if not p.dead then begin
    p.kill_requested <- true;
    match p.interrupt with
    | Some inject -> inject Stopped
    | None -> () (* flag is honoured at the next suspension point *)
  end

let step t =
  match Pqueue.pop t.queue with
  | None -> false
  | Some (time, ev) ->
      t.has_run <- true;
      t.clock <- max t.clock time;
      if not ev.cancelled then begin
        Trace.incr_h h_events_executed;
        ev.thunk ()
      end;
      true

let run ?until t =
  let continue_past time =
    match until with None -> true | Some limit -> time <= limit
  in
  let rec loop () =
    match Pqueue.peek_key t.queue with
    | None -> ()
    | Some time when not (continue_past time) -> ()
    | Some _ ->
        ignore (step t);
        loop ()
  in
  loop ()

let failures t = List.rev t.failures
let has_run t = t.has_run

(* ------------------------- snapshot / restore ------------------------- *)

(* Only a never-run engine can be snapshotted: once [step] has executed an
   event, live one-shot continuations may be parked in the queue and those
   cannot be forked. Before the first step the queue holds only re-runnable
   closures — [start t p body] spawn thunks and plain [at] thunks — so
   capturing them by reference is a faithful fork point.

   Event records are shared mutable state (a cancel closure mutates the
   record in place), so the snapshot stores their fields by value and
   [restore] rebuilds fresh records: a trial cancelling a pre-snapshot
   event must not corrupt the capture. Insertion order is preserved via
   {!Pqueue.entries}/{!Pqueue.clear}, which reproduces pop order exactly. *)

type snap = {
  s_clock : int;
  s_next_id : int;
  s_failures : (string * exn) list;
  s_procs : proc list;
  s_nprocs : int;
  s_sweep_at : int;
  s_events : (int * bool * (unit -> unit)) list;
}

let snapshot t =
  if t.has_run then
    invalid_arg "Engine.snapshot: engine has already executed events";
  {
    s_clock = t.clock;
    s_next_id = t.next_id;
    s_failures = t.failures;
    s_procs = t.procs;
    s_nprocs = t.nprocs;
    s_sweep_at = t.sweep_at;
    s_events =
      List.map
        (fun (key, ev) -> (key, ev.cancelled, ev.thunk))
        (Pqueue.entries t.queue);
  }

let restore t s =
  t.clock <- s.s_clock;
  t.next_id <- s.s_next_id;
  t.failures <- s.s_failures;
  t.procs <- s.s_procs;
  t.nprocs <- s.s_nprocs;
  t.sweep_at <- s.s_sweep_at;
  List.iter
    (fun p ->
      p.dead <- false;
      p.kill_requested <- false;
      p.interrupt <- None)
    s.s_procs;
  Pqueue.clear t.queue;
  List.iter
    (fun (key, cancelled, thunk) -> Pqueue.add t.queue ~key { cancelled; thunk })
    s.s_events;
  t.has_run <- false

let blocked t =
  t.procs
  |> List.filter (fun p -> (not p.dead) && p.interrupt <> None)
  |> List.rev_map (fun p -> p.name)
