module Trace = Vino_trace.Trace
open Effect.Deep

(* Counter handles, interned once at load: the emit sites below
   bump a flat per-sink array instead of hashing a dotted name. *)
let h_procs_spawned = Vino_trace.Counters.handle "sim.procs_spawned"
let h_events_executed = Vino_trace.Counters.handle "sim.events_executed"
let h_proc_failures = Vino_trace.Counters.handle "sim.proc_failures"

exception Stopped

(* [Parked] until its delay's entry or a waker comes; [Woken] or
   [Interrupted] (by [kill]) once its resume is queued. *)
type state =
  | Ready of (unit -> unit)
  | Running
  | Parked of (unit, unit) continuation
  | Woken of (unit, unit) continuation
  | Interrupted of (unit, unit) continuation
  | Dead

(* A queue entry is a timer, or a process's own [wake] tagged with its
   generation; a cancelled timer's [fn] is [cancelled]. *)
type event = Timer of { mutable fn : unit -> unit } | Wake of proc

and proc = {
  id : int;
  name : string;
  mutable state : state;
  mutable gen : int;
  mutable kill_requested : bool;
  mutable wake : event; (* [Wake] of this process, set at spawn *)
}

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
  mutable current : proc; (* the process last resumed; see [resume] *)
  mutable delay_n : int; (* the argument of the [Delay] being handled *)
  handler : (unit, unit) handler; (* shared by every process *)
  on_delay : ((unit, unit) continuation -> unit) option;
}

type cancel = unit -> unit

type _ Effect.t +=
  | Delay : int -> unit Effect.t
  | Suspend : (t -> proc -> unit) -> unit Effect.t

let min_sweep = 64
let cancelled () = ()

let rec nobody =
  {
    id = -1;
    name = "";
    state = Dead;
    gen = 0;
    kill_requested = false;
    wake = Wake nobody;
  }

let check_time t time =
  if time < t.clock then invalid_arg "Engine.at: cannot schedule in the past"

(* The handler's cases run for [t.current], the process that performed. *)
let park_delay t k =
  let p = t.current in
  if p.kill_requested then discontinue k Stopped
  else begin
    check_time t (t.clock + t.delay_n);
    p.state <- Parked k;
    Pqueue.add t.queue ~key:(t.clock + t.delay_n) ~gen:p.gen p.wake
  end

let effc t (type a) (eff : a Effect.t) :
    ((a, unit) continuation -> unit) option =
  match eff with
  | Delay n ->
      t.delay_n <- n;
      t.on_delay
  | Suspend register ->
      Some
        (fun k ->
          let p = t.current in
          if p.kill_requested then discontinue k Stopped
          else begin
            p.state <- Parked k;
            register t p
          end)
  | _ -> None

let create () =
  let rec t =
    {
      clock = 0;
      queue = Pqueue.create ();
      procs = [];
      nprocs = 0;
      sweep_at = min_sweep;
      failures = [];
      next_id = 0;
      has_run = false;
      current = nobody;
      delay_n = 0;
      handler =
        {
          retc = (fun () -> t.current.state <- Dead);
          exnc =
            (fun e ->
              t.current.state <- Dead;
              if e != Stopped then begin
                Trace.incr_h h_proc_failures;
                t.failures <- (t.current.name, e) :: t.failures
              end);
          effc = (fun eff -> effc t eff);
        };
      on_delay = Some (fun k -> park_delay t k);
    }
  in
  t

let now t = t.clock
let now_us t = Vino_vm.Costs.us_of_cycles t.clock

let at t time f =
  check_time t time;
  let ev = Timer { fn = f } in
  Pqueue.add t.queue ~key:time ~gen:0 ev;
  fun () -> match ev with Timer r -> r.fn <- cancelled | Wake _ -> ()

let after t delta f = at t (t.clock + delta) f
let proc_id p = p.id
let alive p = p.state != Dead
let delay n = Effect.perform (Delay n)

(* The waker acts only while its own suspension is [Parked]: a later
   suspension has another generation. The value waits in [v] for the
   resume, which runs from the event loop, not the waker's stack. *)
let suspend f =
  let v = ref None in
  Effect.perform
    (Suspend
       (fun t p ->
         let gen = p.gen in
         f (fun x ->
             match p.state with
             | Parked k when p.gen = gen ->
                 v := Some x;
                 p.state <- Woken k;
                 Pqueue.add t.queue ~key:t.clock ~gen p.wake
             | _ -> ())));
  Option.get !v

let self t =
  if t.current.state != Running then
    invalid_arg "Engine.self: not inside a process";
  t.current

let spawn t ?name body =
  let id = t.next_id in
  t.next_id <- id + 1;
  let name =
    match name with Some n -> n | None -> Printf.sprintf "proc-%d" id
  in
  let p = { nobody with id; name; state = Ready body } in
  p.wake <- Wake p;
  if t.nprocs >= t.sweep_at then begin
    t.procs <- List.filter alive t.procs;
    t.nprocs <- List.length t.procs;
    t.sweep_at <- max min_sweep (2 * t.nprocs)
  end;
  t.procs <- p :: t.procs;
  t.nprocs <- t.nprocs + 1;
  Trace.incr_h h_procs_spawned;
  Pqueue.add t.queue ~key:t.clock ~gen:0 p.wake;
  p

let kill t p =
  match p.state with
  | Dead -> ()
  | Parked k ->
      p.kill_requested <- true;
      p.state <- Interrupted k;
      p.gen <- p.gen + 1;
      Pqueue.add t.queue ~key:t.clock ~gen:p.gen p.wake
  | _ -> p.kill_requested <- true

(* Run [p] until it parks or ends. [t.current] keeps the process last
   resumed, which is no longer [Running] once it returns here; it is
   put back only if it is, i.e. a process ran the engine itself. *)
let resume t p =
  let outer = t.current in
  t.current <- p;
  (match p.state with
  | Ready _ when p.kill_requested -> p.state <- Dead
  | Ready body ->
      p.state <- Running;
      match_with body () t.handler
  | (Parked k | Woken k | Interrupted k) as parked -> (
      p.state <- Running;
      p.gen <- p.gen + 1;
      match parked with
      | Interrupted _ -> discontinue k Stopped
      | _ -> continue k ())
  | Running | Dead -> ());
  if outer.state == Running then t.current <- outer

(* An entry is stale if its timer was cancelled or its process has moved
   to another generation; it still moves the clock. *)
let run ?(until = max_int) t =
  let q = t.queue in
  let s = ref (Pqueue.head q) in
  while !s >= 0 && Pqueue.key q !s <= until do
    let time = Pqueue.key q !s and gen = Pqueue.gen q !s in
    let ev = Pqueue.pop_head q !s in
    t.has_run <- true;
    if time > t.clock then t.clock <- time;
    (match ev with
    | Timer r when r.fn != cancelled ->
        Trace.incr_h h_events_executed;
        r.fn ()
    | Wake p when gen = p.gen ->
        Trace.incr_h h_events_executed;
        resume t p
    | Timer _ | Wake _ -> ());
    s := Pqueue.head q
  done

let failures t = List.rev t.failures
let has_run t = t.has_run

(* ------------------------- snapshot / restore ------------------------- *)

(* Only a never-run engine can be snapshotted: after the first event,
   processes may hold parked one-shot continuations, which cannot be
   forked. Before it, every process is [Ready] with a re-runnable body.
   A cancel writes a timer in place, so the snapshot and each restore
   copy the timers; a restore also moves each process to a new
   generation, so no waker from the abandoned run can wake it. *)

type snap = {
  fields : t; (* a shallow copy: clock, counters, process list *)
  states : (proc * state) list;
  events : (int * event) list;
}

let copy = function Timer r -> Timer { fn = r.fn } | Wake _ as w -> w

let snapshot t =
  if t.has_run then
    invalid_arg "Engine.snapshot: engine has already executed events";
  {
    fields = { t with clock = t.clock };
    states = List.map (fun p -> (p, p.state)) t.procs;
    events = List.map (fun (k, ev) -> (k, copy ev)) (Pqueue.entries t.queue);
  }

let restore t { fields = s; states; events } =
  t.clock <- s.clock;
  t.next_id <- s.next_id;
  t.failures <- s.failures;
  t.procs <- s.procs;
  t.nprocs <- s.nprocs;
  t.sweep_at <- s.sweep_at;
  List.iter
    (fun (p, state) ->
      p.state <- state;
      p.gen <- p.gen + 1;
      p.kill_requested <- false)
    states;
  Pqueue.clear t.queue;
  List.iter
    (fun (key, ev) ->
      let gen = match ev with Wake p -> p.gen | Timer _ -> 0 in
      Pqueue.add t.queue ~key ~gen (copy ev))
    events;
  t.has_run <- false

let blocked t =
  t.procs
  |> List.filter (fun p ->
         match p.state with
         | Parked _ | Woken _ | Interrupted _ -> true
         | Ready _ | Running | Dead -> false)
  |> List.rev_map (fun p -> p.name)
