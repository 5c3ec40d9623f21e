module Engine = Vino_sim.Engine
module Tick = Vino_sim.Tick
module Trace = Vino_trace.Trace
module Span = Vino_trace.Span
module Profile = Vino_trace.Profile

(* Counter handles, interned once at load: the emit sites below
   bump a flat per-sink array instead of hashing a dotted name. *)
let h_txn_begins = Vino_trace.Counters.handle "txn.begins"
let h_undo_pushes = Vino_trace.Counters.handle "undo.pushes"
let h_txn_aborts = Vino_trace.Counters.handle "txn.aborts"
let h_undo_replays = Vino_trace.Counters.handle "undo.replays"
let h_txn_commits_nested = Vino_trace.Counters.handle "txn.commits_nested"
let h_txn_commits = Vino_trace.Counters.handle "txn.commits"
let h_txn_deferred_failures = Vino_trace.Counters.handle "txn.deferred_failures"

type state = Active | Committed | Aborted of string

type mgr = {
  engine : Engine.t;
  wheel : Tick.t;
  costs : Tcosts.t;
  mutable next_id : int;
  mutable n_begins : int;
  mutable n_commits : int;
  mutable n_aborts : int;
  mutable n_live : int;
  mutable n_undo_live : int; (* undo entries of unresolved transactions *)
  mutable n_undo_failures : int; (* undo entries that raised during replay *)
  mutable n_deferred_failures : int; (* deferred actions that raised *)
  current : (int, tref) Hashtbl.t; (* engine proc id -> innermost txn *)
  frames : tref Arena.t; (* retired frames, recycled by [begin_] *)
}
and tref = T : t -> tref

(* Every field a [begin_] must re-initialize is mutable so a retired
   frame can be recycled in place (see [recycle]); the embedded undo
   log keeps its backing arrays across reuse. [mgr] is immutable: the
   arena is per-manager, so a frame never migrates. *)
and t = {
  mgr : mgr;
  mutable tid : int;
  mutable tname : string;
  mutable tparent : t option;
  undo : Undo_log.t;
  mutable locks : Lock.held list; (* most recently acquired first *)
  mutable tstate : state;
  mutable abort_reason : string option;
  mutable active_children : int;
  mutable open_child : bool; (* counted in its parent's [active_children] *)
  mutable deferred : (unit -> unit) list; (* run at top-level commit only *)
  mutable committing : bool; (* [commit] decided; a kill may interrupt it *)
  mutable parked : bool; (* already returned to the arena *)
}

(* The engine process this code runs on behalf of — the profiler's frame
   key. Only called when a sink is installed, and only from code that
   already performs engine effects (so always inside a process). *)
let trace_ctx m = Engine.proc_id (Engine.self m.engine)

let default_undo_slots = 64
let default_frame_slots = 64

let create_mgr engine ~wheel () =
  {
    engine;
    wheel;
    costs = Tcosts.default;
    next_id = 0;
    n_begins = 0;
    n_commits = 0;
    n_aborts = 0;
    n_live = 0;
    n_undo_live = 0;
    n_undo_failures = 0;
    n_deferred_failures = 0;
    current = Hashtbl.create 16;
    frames = Arena.create ~slots:default_frame_slots ();
  }

let frames_outstanding m = Arena.outstanding m.frames
let frames_retained m = Arena.retained m.frames

let engine m = m.engine
let wheel m = m.wheel
let costs m = m.costs
let begins m = m.n_begins
let commits m = m.n_commits
let aborts m = m.n_aborts
let live m = m.n_live
let undo_live m = m.n_undo_live
let undo_failures m = m.n_undo_failures
let deferred_failures m = m.n_deferred_failures

let saver m () =
  let next_id = m.next_id
  and n_begins = m.n_begins
  and n_commits = m.n_commits
  and n_aborts = m.n_aborts
  and n_live = m.n_live
  and n_undo_live = m.n_undo_live
  and n_undo_failures = m.n_undo_failures
  and n_deferred_failures = m.n_deferred_failures in
  fun () ->
    m.next_id <- next_id;
    m.n_begins <- n_begins;
    m.n_commits <- n_commits;
    m.n_aborts <- n_aborts;
    m.n_live <- n_live;
    m.n_undo_live <- n_undo_live;
    m.n_undo_failures <- n_undo_failures;
    m.n_deferred_failures <- n_deferred_failures;
    (* per-proc current-txn map is empty pre-run; the arena stays warm
       (frame reuse changes no observable counter or cost) *)
    Hashtbl.reset m.current

let id t = t.tid
let name t = t.tname
let state t = t.tstate
let is_active t = t.tstate = Active
let parent t = t.tparent
let undo_depth t = Undo_log.length t.undo
let locks_held t = List.length t.locks

let begin_ m ?parent ~name () =
  (match parent with
  | Some p ->
      if p.mgr != m then invalid_arg "Txn.begin_: parent on another manager";
      if not (is_active p) then
        invalid_arg "Txn.begin_: parent is not active"
  | None -> ());
  let tid = m.next_id in
  m.next_id <- tid + 1;
  m.n_begins <- m.n_begins + 1;
  let cost =
    match parent with
    | Some _ -> m.costs.nested_begin
    | None -> m.costs.txn_begin
  in
  Engine.delay cost;
  (* counted live only once the delay is past: a kill at the delay leaves
     no transaction to resolve *)
  m.n_live <- m.n_live + 1;
  Option.iter (fun p -> p.active_children <- p.active_children + 1) parent;
  if Trace.enabled () then begin
    Trace.incr_h h_txn_begins;
    Trace.span Span.Txn_begin ~label:name
      ~start:(Engine.now m.engine - cost)
      ~dur:cost;
    Trace.charge ~ctx:(trace_ctx m) Profile.Txn cost
  end;
  let (T t) =
    Arena.take m.frames ~otherwise:(fun () ->
        T
          {
            mgr = m;
            tid;
            tname = name;
            tparent = parent;
            undo = Undo_log.create ~slots:default_undo_slots ();
            locks = [];
            tstate = Active;
            abort_reason = None;
            active_children = 0;
            open_child = false;
            deferred = [];
            committing = false;
            parked = false;
          })
  in
  (* A recycled frame comes back with its undo log, locks and deferred
     list already empty (resolution emptied them; [recycle] checks). *)
  t.tid <- tid;
  t.tname <- name;
  t.tparent <- parent;
  t.tstate <- Active;
  t.abort_reason <- None;
  t.active_children <- 0;
  t.open_child <- Option.is_some parent;
  t.committing <- false;
  t.parked <- false;
  t

(* Return a resolved frame to its manager's arena for the next
   [begin_]. Only for callers that know no reference to [t] survives —
   the graft invocation path owns its transaction outright; a frame
   handed to user code must simply never be recycled (the GC takes it,
   exactly as before arenas). *)
let recycle t =
  match t.tstate with
  | Active -> invalid_arg "Txn.recycle: transaction is still active"
  | Committed | Aborted _ ->
      if not t.parked then begin
        t.parked <- true;
        (* a parked frame must pin nothing *)
        t.tparent <- None;
        t.tname <- "";
        t.abort_reason <- None;
        assert (Undo_log.is_empty t.undo);
        assert (t.locks == [] && t.deferred == []);
        Arena.put t.mgr.frames (T t)
      end

let defer t action =
  if not (is_active t) then invalid_arg "Txn.defer: transaction is not active";
  t.deferred <- action :: t.deferred

let push_undo t ?cost ~label undo =
  if not (is_active t) then
    invalid_arg "Txn.push_undo: transaction is not active";
  Undo_log.push t.undo ?cost ~label undo;
  t.mgr.n_undo_live <- t.mgr.n_undo_live + 1;
  Engine.delay t.mgr.costs.undo_push;
  if Trace.enabled () then begin
    Trace.incr_h h_undo_pushes;
    Trace.charge ~ctx:(trace_ctx t.mgr) Profile.Undo t.mgr.costs.undo_push
  end

let request_abort t reason =
  if is_active t && t.abort_reason = None then t.abort_reason <- Some reason

let abort_requested t = t.abort_reason

let rec chain_abort_reason t =
  match t.abort_reason with
  | Some _ as r -> r
  | None -> (
      match t.tparent with Some p -> chain_abort_reason p | None -> None)

let poll t () = if is_active t then chain_abort_reason t else None

let owner t =
  {
    Lock.name = t.tname;
    request_abort =
      Some
        (fun r ->
          let fresh = is_active t && t.abort_reason = None in
          request_abort t r;
          fresh);
  }

let resolve t = t.mgr.n_live <- t.mgr.n_live - 1

(* Detach from the parent before any delay of a resolution, once: a kill
   at that delay must not leave the parent unable to resolve. *)
let finish_child t =
  if t.open_child then begin
    t.open_child <- false;
    match t.tparent with
    | Some p -> p.active_children <- p.active_children - 1
    | None -> ()
  end

let abort t ~reason =
  match t.tstate with
  | Aborted _ -> ()
  | Committed -> invalid_arg "Txn.abort: already committed"
  | Active ->
      if t.active_children > 0 then
        invalid_arg "Txn.abort: children still active";
      finish_child t;
      let pending = Undo_log.length t.undo in
      let replay_cost =
        Undo_log.replay
          ~on_error:(fun ~label:_ _exn ->
            t.mgr.n_undo_failures <- t.mgr.n_undo_failures + 1)
          t.undo
      in
      t.mgr.n_undo_live <- t.mgr.n_undo_live - pending;
      List.iter (fun h -> Lock.release ~during_abort:true h) t.locks;
      t.locks <- [];
      t.deferred <- [];
      t.tstate <- Aborted reason;
      t.mgr.n_aborts <- t.mgr.n_aborts + 1;
      resolve t;
      Engine.delay (t.mgr.costs.txn_abort + replay_cost);
      if Trace.enabled () then begin
        let now = Engine.now t.mgr.engine in
        Trace.incr_h h_txn_aborts;
        Trace.span Span.Txn_abort ~label:t.tname
          ~start:(now - t.mgr.costs.txn_abort - replay_cost)
          ~dur:t.mgr.costs.txn_abort;
        if pending > 0 then begin
          Trace.add_h h_undo_replays pending;
          Trace.span Span.Undo_replay ~label:t.tname
            ~start:(now - replay_cost) ~dur:replay_cost
        end;
        let ctx = trace_ctx t.mgr in
        Trace.charge ~ctx Profile.Txn t.mgr.costs.txn_abort;
        Trace.charge ~ctx Profile.Undo replay_cost
      end

(* Pop each handle before its release delays, so a kill at that delay
   leaves exactly the unreleased locks in [t.locks]. *)
let rec release_locks t =
  match t.locks with
  | [] -> ()
  | h :: rest ->
      t.locks <- rest;
      Lock.release h;
      release_locks t

let commit t =
  match t.tstate with
  | Committed -> Ok ()
  | Aborted reason -> Error reason
  | Active -> (
      if t.active_children > 0 then
        invalid_arg "Txn.commit: children still active";
      match if t.committing then None else chain_abort_reason t with
      | Some reason ->
          (* requested on us or on an ancestor: either way this transaction
             cannot usefully continue *)
          abort t ~reason;
          Error reason
      | None ->
          (* The decision is final from here. Every step below leaves the
             transaction consistent at each delay, so a commit a kill
             interrupts is finished by calling [commit] again ({!settle}),
             never undone. *)
          t.committing <- true;
          finish_child t;
          let deferred =
            match t.tparent with
            | Some p ->
                (* merge undo stack, locks and deferred work into the parent
                   (§3.1): the locks are now held by the parent, so a
                   time-out must be able to abort the parent — re-point each
                   one before handing it over *)
                Undo_log.merge_into ~parent:p.undo t.undo;
                let powner = owner p in
                List.iter (fun h -> Lock.reassign h powner) t.locks;
                p.locks <- t.locks @ p.locks;
                t.locks <- [];
                p.deferred <- t.deferred @ p.deferred;
                t.deferred <- [];
                Engine.delay t.mgr.costs.nested_commit;
                if Trace.enabled () then begin
                  Trace.incr_h h_txn_commits_nested;
                  Trace.span Span.Txn_commit ~label:t.tname
                    ~start:(Engine.now t.mgr.engine - t.mgr.costs.nested_commit)
                    ~dur:t.mgr.costs.nested_commit;
                  Trace.charge ~ctx:(trace_ctx t.mgr) Profile.Txn
                    t.mgr.costs.nested_commit
                end;
                []
            | None ->
                release_locks t;
                t.mgr.n_undo_live <-
                  t.mgr.n_undo_live - Undo_log.length t.undo;
                Undo_log.clear t.undo;
                Engine.delay t.mgr.costs.txn_commit;
                if Trace.enabled () then begin
                  Trace.incr_h h_txn_commits;
                  Trace.span Span.Txn_commit ~label:t.tname
                    ~start:(Engine.now t.mgr.engine - t.mgr.costs.txn_commit)
                    ~dur:t.mgr.costs.txn_commit;
                  Trace.charge ~ctx:(trace_ctx t.mgr) Profile.Txn
                    t.mgr.costs.txn_commit
                end;
                let d = List.rev t.deferred in
                t.deferred <- [];
                d
          in
          t.tstate <- Committed;
          t.mgr.n_commits <- t.mgr.n_commits + 1;
          resolve t;
          (* Deferred actions run only now, with the transaction already
             Committed and the counters balanced: the decision to commit is
             final, so a raising action cannot be allowed to wedge the
             transaction half-resolved — it is recorded and skipped. *)
          List.iter
            (fun action ->
              try action () with
              | Engine.Stopped as stop -> raise stop
              | _exn ->
                  Trace.incr_h h_txn_deferred_failures;
                  t.mgr.n_deferred_failures <- t.mgr.n_deferred_failures + 1)
            deferred;
          Ok ())

let settle t ~reason =
  if is_active t then
    if t.committing then ignore (commit t : (unit, string) result)
    else abort t ~reason

(* The transaction the calling engine process is currently executing
   under, if any (set by the invocation wrapper). *)
let current m =
  match
    Hashtbl.find_opt m.current (Engine.proc_id (Engine.self m.engine))
  with
  | Some (T t) when is_active t -> Some t
  | Some _ | None -> None

let with_current m t f =
  let pid = Engine.proc_id (Engine.self m.engine) in
  let saved = Hashtbl.find_opt m.current pid in
  Hashtbl.replace m.current pid (T t);
  let restore () =
    match saved with
    | Some prev -> Hashtbl.replace m.current pid prev
    | None -> Hashtbl.remove m.current pid
  in
  match f () with
  | result ->
      restore ();
      result
  | exception e ->
      restore ();
      raise e

let acquire_lock t lock mode =
  if not (is_active t) then Error "transaction is not active"
  else
    match Lock.acquire lock mode (owner t) ~poll:(poll t) () with
    | Lock.Granted held ->
        t.locks <- held :: t.locks;
        Ok ()
    | Lock.Gave_up reason -> Error reason

let with_lock t lock mode f =
  Result.map (fun () -> f ()) (acquire_lock t lock mode)
