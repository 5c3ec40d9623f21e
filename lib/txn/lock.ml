module Engine = Vino_sim.Engine
module Tick = Vino_sim.Tick
module Trace = Vino_trace.Trace
module Span = Vino_trace.Span
module Profile = Vino_trace.Profile

(* Counter handles, interned once at load: the emit sites below
   bump a flat per-sink array instead of hashing a dotted name. *)
let h_lock_acquisitions = Vino_trace.Counters.handle "lock.acquisitions"
let h_lock_holder_aborts = Vino_trace.Counters.handle "lock.holder_aborts"
let h_lock_contentions = Vino_trace.Counters.handle "lock.contentions"
let h_lock_timeouts = Vino_trace.Counters.handle "lock.timeouts"
let h_lock_fruitless_giveups = Vino_trace.Counters.handle "lock.fruitless_giveups"

let trace_ctx () = Engine.proc_id (Engine.self ())

type owner = { name : string; request_abort : (string -> unit) option }

let plain_owner name = { name; request_abort = None }

type signal = Wake | Timeout_fired

type waiter = {
  wowner : owner;
  wmode : Lock_policy.mode;
  mutable pending_wake : bool;
  mutable waker : (signal -> unit) option;
}

type t = {
  engine : Engine.t;
  wheel : Tick.t;
  costs : Tcosts.t;
  lname : string;
  ltimeout : int;
  lpolicy : Lock_policy.t;
  mutable holders : held list;
  mutable waitq : waiter list; (* index 0 is the queue head *)
  mutable n_acquisitions : int;
  mutable n_contentions : int;
  mutable n_timeouts : int;
  mutable n_holder_aborts : int;
  mutable n_fruitless_giveups : int;
}

and held = {
  lock : t;
  mutable howner : owner;
  hmode : Lock_policy.mode;
  mutable released : bool;
}

type outcome = Granted of held | Gave_up of string

let default_timeout = Tcosts.us 1000.

(* How many consecutive time-outs finding no abortable holder a waiter
   tolerates before giving up. An unabortable holder usually releases soon
   (plain kernel threads hold locks briefly), so a little patience is right;
   but if nothing we can abort ever shows up, waiting forever is a livelock:
   nothing will ever wake us. *)
let fruitless_timeout_bound = 25

let create engine ~wheel ?(policy = Lock_policy.reader_priority)
    ?(timeout = default_timeout) ~name () =
  {
    engine;
    wheel;
    costs = Tcosts.default;
    lname = name;
    ltimeout = timeout;
    lpolicy = policy;
    holders = [];
    waitq = [];
    n_acquisitions = 0;
    n_contentions = 0;
    n_timeouts = 0;
    n_holder_aborts = 0;
    n_fruitless_giveups = 0;
  }

let name t = t.lname
let timeout t = t.ltimeout
let policy t = t.lpolicy
let holder_modes t = List.map (fun h -> h.hmode) t.holders
let holders t = List.map (fun h -> (h.howner.name, h.hmode)) t.holders
let waiters t = List.map (fun w -> (w.wowner.name, w.wmode)) t.waitq
let acquisitions t = t.n_acquisitions
let contentions t = t.n_contentions
let timeouts_fired t = t.n_timeouts
let holder_aborts_requested t = t.n_holder_aborts
let fruitless_giveups t = t.n_fruitless_giveups

let reassign h owner = h.howner <- owner

let charge_policy t = t.lpolicy.indirections * t.costs.policy_indirection

(* Insert at the index chosen by the policy. *)
let enqueue t w =
  let k = t.lpolicy.insert w.wmode ~waiters:(List.map (fun x -> x.wmode) t.waitq) in
  let rec ins i = function
    | rest when i = 0 -> w :: rest
    | [] -> [ w ]
    | x :: rest -> x :: ins (i - 1) rest
  in
  t.waitq <- ins k t.waitq

let dequeue t w = t.waitq <- List.filter (fun x -> x != w) t.waitq

(* Modes of the waiters strictly ahead of [w] in the queue (everything, for a
   fresh request). *)
let modes_ahead_of t w =
  let rec take acc = function
    | [] -> List.rev acc
    | x :: _ when x == w -> List.rev acc
    | x :: rest -> take (x.wmode :: acc) rest
  in
  take [] t.waitq

let wake_waiters t =
  List.iter
    (fun w ->
      w.pending_wake <- true;
      match w.waker with Some f -> f Wake | None -> ())
    t.waitq

let grant t mode owner =
  let h =
    {
      lock = t;
      howner = owner;
      hmode = mode;
      released = false;
    }
  in
  t.holders <- h :: t.holders;
  t.n_acquisitions <- t.n_acquisitions + 1;
  Trace.incr_h h_lock_acquisitions;
  h

(* Ask every abortable holder's transaction to abort: the paper's
   time-constrained-resource recovery (§3.2). Returns how many holders could
   be asked — zero means nothing this waiter does can free the lock. *)
let abort_holders t =
  List.fold_left
    (fun asked h ->
      match h.howner.request_abort with
      | Some f ->
          t.n_holder_aborts <- t.n_holder_aborts + 1;
          Trace.incr_h h_lock_holder_aborts;
          f (Printf.sprintf "lock %S held past its time-out" t.lname);
          asked + 1
      | None -> asked)
    0 t.holders

(* One blocking episode for waiter [w]: returns the signal that ended it. *)
let sleep t w =
  if w.pending_wake then begin
    w.pending_wake <- false;
    Wake
  end
  else begin
    let cancel_timer = ref (fun () -> ()) in
    let result =
      Engine.suspend (fun wk ->
          w.waker <- Some wk;
          cancel_timer :=
            Tick.arm t.wheel ~after:t.ltimeout (fun () ->
                match w.waker with Some f -> f Timeout_fired | None -> ()))
    in
    !cancel_timer ();
    w.waker <- None;
    if result = Wake then w.pending_wake <- false;
    result
  end

let acquire t mode owner ?(poll = fun () -> None) () =
  let acquisition_charge =
    t.costs.mutex_acquire
    + (match owner.request_abort with
      | Some _ -> t.costs.txn_lock_extra
      | None -> 0)
    + charge_policy t
  in
  Engine.delay acquisition_charge;
  if Trace.enabled () then begin
    Trace.span Span.Lock_acquire ~label:t.lname
      ~start:(Engine.now t.engine - acquisition_charge)
      ~dur:acquisition_charge;
    Trace.charge ~ctx:(trace_ctx ()) Profile.Txn acquisition_charge
  end;
  match poll () with
  | Some reason -> Gave_up reason
  | None ->
      if
        t.lpolicy.grant mode ~holders:(holder_modes t)
          ~waiters:(List.map (fun x -> x.wmode) t.waitq)
      then Granted (grant t mode owner)
      else begin
        t.n_contentions <- t.n_contentions + 1;
        Trace.incr_h h_lock_contentions;
        let wait_start = Engine.now t.engine in
        let end_wait () =
          if Trace.enabled () then
            Trace.span Span.Lock_wait ~label:t.lname ~start:wait_start
              ~dur:(Engine.now t.engine - wait_start)
        in
        let w =
          { wowner = owner; wmode = mode; pending_wake = false; waker = None }
        in
        enqueue t w;
        (* [fruitless] counts consecutive time-outs on which no holder was
           abortable. Any wake (a release happened: progress) resets it; so
           does a time-out that found someone to abort. Giving up after the
           bound keeps a waiter from re-arming the timer forever against
           holders nothing can abort. *)
        let rec wait_loop fruitless =
          let signal = sleep t w in
          match poll () with
          | Some reason ->
              dequeue t w;
              end_wait ();
              Gave_up reason
          | None ->
              if
                t.lpolicy.grant mode ~holders:(holder_modes t)
                  ~waiters:(modes_ahead_of t w)
              then begin
                dequeue t w;
                end_wait ();
                Granted (grant t mode owner)
              end
              else begin
                match signal with
                | Timeout_fired ->
                    t.n_timeouts <- t.n_timeouts + 1;
                    if Trace.enabled () then begin
                      Trace.incr_h h_lock_timeouts;
                      Trace.span Span.Lock_timeout ~label:t.lname
                        ~start:(Engine.now t.engine) ~dur:0
                    end;
                    if abort_holders t > 0 then wait_loop 0
                    else if fruitless + 1 >= fruitless_timeout_bound then begin
                      t.n_fruitless_giveups <- t.n_fruitless_giveups + 1;
                      Trace.incr_h h_lock_fruitless_giveups;
                      dequeue t w;
                      end_wait ();
                      Gave_up
                        (Printf.sprintf
                           "lock %S: no abortable holder after %d time-outs"
                           t.lname (fruitless + 1))
                    end
                    else wait_loop (fruitless + 1)
                | Wake -> wait_loop 0
              end
        in
        wait_loop 0
      end

let saver t () =
  let n_acquisitions = t.n_acquisitions
  and n_contentions = t.n_contentions
  and n_timeouts = t.n_timeouts
  and n_holder_aborts = t.n_holder_aborts
  and n_fruitless_giveups = t.n_fruitless_giveups in
  fun () ->
    t.holders <- [];
    t.waitq <- [];
    t.n_acquisitions <- n_acquisitions;
    t.n_contentions <- n_contentions;
    t.n_timeouts <- n_timeouts;
    t.n_holder_aborts <- n_holder_aborts;
    t.n_fruitless_giveups <- n_fruitless_giveups

let release ?(during_abort = false) h =
  if not h.released then begin
    let t = h.lock in
    h.released <- true;
    t.holders <- List.filter (fun x -> x != h) t.holders;
    wake_waiters t;
    Engine.delay
      (if during_abort then t.costs.lock_release_abort
       else t.costs.mutex_release)
  end
