type t = {
  ring : Span.t Ring.t;
  ctrs : Counters.t;
  prof : Profile.t;
}

let default_span_capacity = 65536

let create ?(span_capacity = default_span_capacity) () =
  {
    ring = Ring.create ~capacity:span_capacity;
    ctrs = Counters.create ();
    prof = Profile.create ();
  }

(* The installed sink. Domain-local: each domain installs and reads its
   own sink, so the parallel fan-out (Vino_par.Pool) can run one kernel
   per worker domain without the streams racing or mixing — a worker sees
   no sink, and the pool runs traced work serially in the caller's
   domain. Within a domain, scoping with [with_t] keeps concurrent
   kernels (the bench harness) from mixing streams. *)
let sink : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* The number of domains with a sink installed. While it is zero no
   domain can have one, so every accessor answers from this one atomic
   load, without the domain-local lookup. Installing a sink where none
   was counts up, removing the last one counts down. *)
let installed = Atomic.make 0

let set_sink next =
  let prev = Domain.DLS.get sink in
  Domain.DLS.set sink next;
  match (prev, next) with
  | None, Some _ -> Atomic.incr installed
  | Some _, None -> Atomic.decr installed
  | None, None | Some _, Some _ -> ()

let install t = set_sink (Some t)
let uninstall () = set_sink None

let[@inline] current () =
  if Atomic.get installed = 0 then None else Domain.DLS.get sink

let enabled () = match current () with None -> false | Some _ -> true

let with_t t f =
  let saved = Domain.DLS.get sink in
  set_sink (Some t);
  Fun.protect ~finally:(fun () -> set_sink saved) f

let span kind ~label ~start ~dur =
  match current () with
  | None -> ()
  | Some t -> Ring.push t.ring { Span.kind; label; start; dur }

let incr_h h =
  match current () with None -> () | Some t -> Counters.incr_h t.ctrs h

let add_h h n =
  match current () with None -> () | Some t -> Counters.add_h t.ctrs h n

let push_frame ~ctx ~point ~now =
  match current () with
  | None -> ()
  | Some t -> Profile.push_frame t.prof ~ctx ~point ~now

let charge ~ctx bucket n =
  match current () with
  | None -> ()
  | Some t -> Profile.charge t.prof ~ctx bucket n

let pop_frame ~ctx ~now =
  match current () with
  | None -> ()
  | Some t -> Profile.pop_frame t.prof ~ctx ~now

let spans t = Ring.to_list t.ring
let spans_dropped t = Ring.dropped t.ring
let spans_total t = Ring.total t.ring
let counters t = Counters.snapshot t.ctrs
let counter_value t name = Counters.value t.ctrs name
let profile t = Profile.rows t.prof

let clear t =
  Ring.clear t.ring;
  Counters.clear t.ctrs

let last k xs =
  let n = List.length xs in
  List.filteri (fun i _ -> i >= n - k) xs

let pp_report ?(span_tail = 20) ppf t =
  Format.fprintf ppf "== per-graft cycle accounting ==@\n%a@\n" Profile.pp
    t.prof;
  Format.fprintf ppf "== counters ==@\n";
  (match counters t with
  | [] -> Format.fprintf ppf "(none)@\n"
  | cs ->
      List.iter
        (fun (name, v) -> Format.fprintf ppf "%-28s %12d@\n" name v)
        cs);
  Format.fprintf ppf "@\n== spans (last %d of %d; %d dropped) ==@\n" span_tail
    (spans_total t) (spans_dropped t);
  List.iter
    (fun s -> Format.fprintf ppf "%a@\n" Span.pp s)
    (last span_tail (spans t))

let span_json (s : Span.t) =
  Json.Obj
    [
      ("kind", Json.String (Span.kind_name s.kind));
      ("label", Json.String s.label);
      ("start_cycles", Json.Int s.start);
      ("dur_cycles", Json.Int s.dur);
    ]

let profile_json (r : Profile.row) =
  Json.Obj
    [
      ("point", Json.String r.point);
      ("invocations", Json.Int r.invocations);
      ("total_cycles", Json.Int r.total);
      ("sandbox_cycles", Json.Int r.sandbox);
      ("body_cycles", Json.Int r.body);
      ("txn_cycles", Json.Int r.txn);
      ("undo_cycles", Json.Int r.undo);
    ]

let report_json ?scenario t =
  let fields =
    (match scenario with
    | Some s -> [ ("scenario", Json.String s) ]
    | None -> [])
    @ [
        ("schema", Json.String "vino-trace-v1");
        ("profile", Json.List (List.map profile_json (profile t)));
        ( "counters",
          Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) (counters t)) );
        ( "spans",
          Json.Obj
            [
              ("capacity", Json.Int (Ring.capacity t.ring));
              ("retained", Json.Int (Ring.length t.ring));
              ("dropped", Json.Int (spans_dropped t));
              ("total", Json.Int (spans_total t));
              ("tail", Json.List (List.map span_json (last 100 (spans t))));
            ] );
      ]
  in
  Json.Obj fields
