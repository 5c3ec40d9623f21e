(* The observability layer: ring accounting, counter monotonicity,
   same-seed determinism of the span stream, the audit ring, and the
   golden zero-cost property — installing a sink must not move a single
   virtual cycle of the measured tables. *)

module Ring = Vino_trace.Ring
module Span = Vino_trace.Span
module Trace = Vino_trace.Trace
module Json = Vino_trace.Json
module Profile = Vino_trace.Profile
module Audit = Vino_core.Audit

let ring_wraparound () =
  let r = Ring.create ~capacity:4 in
  for k = 1 to 10 do
    Ring.push r k
  done;
  Alcotest.(check (list int)) "newest 4 retained" [ 7; 8; 9; 10 ] (Ring.to_list r);
  Alcotest.(check int) "length" 4 (Ring.length r);
  Alcotest.(check int) "total" 10 (Ring.total r);
  Alcotest.(check int) "dropped" 6 (Ring.dropped r);
  Ring.clear r;
  Alcotest.(check int) "cleared length" 0 (Ring.length r);
  Alcotest.(check int) "cleared total" 0 (Ring.total r);
  Alcotest.(check int) "cleared dropped" 0 (Ring.dropped r)

let ring_partial () =
  let r = Ring.create ~capacity:8 in
  List.iter (Ring.push r) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "oldest first" [ 1; 2; 3 ] (Ring.to_list r);
  Alcotest.(check int) "nothing dropped" 0 (Ring.dropped r);
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Ring.create: capacity must be positive") (fun () ->
      ignore (Ring.create ~capacity:0))

(* Ring.saver: a restore must reproduce the captured ring exactly, on the
   partial path (only slots pushed since the last restore of the same
   capture) and on each full-copy case. Capacity 4 throughout. *)
let check_ring_state msg (items, length, total, dropped) r =
  Alcotest.(check (list int)) (msg ^ ": entries") items (Ring.to_list r);
  Alcotest.(check int) (msg ^ ": length") length (Ring.length r);
  Alcotest.(check int) (msg ^ ": total") total (Ring.total r);
  Alcotest.(check int) (msg ^ ": dropped") dropped (Ring.dropped r)

let ring_restore_partial_fill () =
  let r = Ring.create ~capacity:4 in
  List.iter (Ring.push r) [ 1; 2 ];
  let restore = Ring.saver r () in
  Ring.push r 3;
  restore ();
  check_ring_state "first restore (full copy)" ([ 1; 2 ], 2, 2, 0) r;
  Ring.push r 8;
  restore ();
  check_ring_state "one push since" ([ 1; 2 ], 2, 2, 0) r;
  Ring.push r 8;
  Ring.push r 9;
  Ring.push r 10;
  restore ();
  check_ring_state "three pushes since, filling the ring"
    ([ 1; 2 ], 2, 2, 0)
    r

let ring_restore_after_wrap () =
  let r = Ring.create ~capacity:4 in
  List.iter (Ring.push r) [ 1; 2; 3 ];
  let restore = Ring.saver r () in
  restore ();
  List.iter (Ring.push r) [ 4; 5 ];
  check_ring_state "wrapped before restore" ([ 2; 3; 4; 5 ], 4, 5, 1) r;
  restore ();
  check_ring_state "two pushes across the end" ([ 1; 2; 3 ], 3, 3, 0) r;
  List.iter (Ring.push r) [ 6; 7; 8; 9; 10 ];
  restore ();
  check_ring_state "more pushes than capacity" ([ 1; 2; 3 ], 3, 3, 0) r;
  (* a capture of a wrapped ring, whose head is mid-buffer *)
  List.iter (Ring.push r) [ 4; 5; 6; 7 ];
  let restore_wrapped = Ring.saver r () in
  restore_wrapped ();
  List.iter (Ring.push r) [ 8; 9; 10 ];
  restore_wrapped ();
  check_ring_state "wrapped capture" ([ 4; 5; 6; 7 ], 4, 7, 3) r

let ring_restore_after_clear () =
  let r = Ring.create ~capacity:4 in
  List.iter (Ring.push r) [ 1; 2; 3 ];
  let restore = Ring.saver r () in
  restore ();
  Ring.clear r;
  restore ();
  check_ring_state "clear rewrites every slot" ([ 1; 2; 3 ], 3, 3, 0) r;
  Ring.clear r;
  Ring.push r 9;
  restore ();
  check_ring_state "clear then push" ([ 1; 2; 3 ], 3, 3, 0) r

let ring_restore_twice () =
  let r = Ring.create ~capacity:4 in
  List.iter (Ring.push r) [ 1; 2 ];
  let restore = Ring.saver r () in
  Ring.push r 3;
  restore ();
  restore ();
  check_ring_state "back-to-back restores" ([ 1; 2 ], 2, 2, 0) r;
  Ring.push r 4;
  restore ();
  restore ();
  check_ring_state "push, then two restores" ([ 1; 2 ], 2, 2, 0) r

(* Two captures of one ring: restoring B after restoring A must copy the
   whole buffer. A write-count delta alone would see B's total again and
   copy nothing, leaving A's later push in B's slot. *)
let ring_restore_two_captures () =
  let r = Ring.create ~capacity:4 in
  List.iter (Ring.push r) [ 1; 2 ];
  let restore_a = Ring.saver r () in
  Ring.push r 3;
  let restore_b = Ring.saver r () in
  restore_a ();
  check_ring_state "A" ([ 1; 2 ], 2, 2, 0) r;
  Ring.push r 9;
  restore_b ();
  check_ring_state "B after A and a push" ([ 1; 2; 3 ], 3, 3, 0) r;
  Ring.push r 4;
  restore_a ();
  check_ring_state "A after B and a push" ([ 1; 2 ], 2, 2, 0) r;
  Ring.push r 5;
  restore_a ();
  check_ring_state "A again" ([ 1; 2 ], 2, 2, 0) r;
  restore_b ();
  check_ring_state "B again" ([ 1; 2; 3 ], 3, 3, 0) r

let span_ring_drops () =
  let sink = Trace.create ~span_capacity:8 () in
  Trace.with_t sink (fun () ->
      for k = 1 to 20 do
        Trace.span Span.Dispatch ~label:"x" ~start:k ~dur:1
      done);
  Alcotest.(check int) "retained" 8 (List.length (Trace.spans sink));
  Alcotest.(check int) "total" 20 (Trace.spans_total sink);
  Alcotest.(check int) "dropped" 12 (Trace.spans_dropped sink)

(* Counters must be monotonic: negative increments are refused, and a
   disaster campaign only ever moves them up. *)
let counter_monotonic () =
  let sink = Trace.create () in
  Trace.with_t sink (fun () ->
      Trace.incr "a";
      Alcotest.check_raises "negative refused"
        (Invalid_argument "Counters.incr: counters are monotonic") (fun () ->
          Trace.incr ~by:(-1) "a"));
  Alcotest.(check int) "a" 1 (Trace.counter_value sink "a")

let campaign_counters () =
  let sink = Trace.create () in
  let watched =
    [ "txn.begins"; "txn.aborts"; "graft.invocations"; "audit.graft_installed" ]
  in
  let snapshots =
    Trace.with_t sink (fun () ->
        List.map
          (fun seed ->
            ignore (Vino_disaster.Campaign.run ~seed ~count:10 ());
            List.map (fun c -> Trace.counter_value sink c) watched)
          [ 1; 2; 3 ])
  in
  (* each campaign adds work: every watched counter strictly increases *)
  List.iteri
    (fun i snap ->
      if i > 0 then
        List.iter2
          (fun prev now ->
            if now <= prev then
              Alcotest.failf "counter went %d -> %d across campaigns" prev now)
          (List.nth snapshots (i - 1))
          snap)
    snapshots;
  List.iter2
    (fun name v ->
      if v <= 0 then Alcotest.failf "counter %s never moved" name)
    watched (List.hd snapshots)

(* Deterministic simulation: the same seed must produce the identical
   span stream, span for span. Open-file lock labels embed a
   process-global descriptor uniquifier (File.open_counter) that advances
   across runs by design; strip it so only simulation state is compared. *)
let same_seed_same_spans () =
  let strip_uniquifier s =
    String.to_seq s |> List.of_seq
    |> List.fold_left
         (fun (acc, skipping) c ->
           if c = '#' then (acc, true)
           else if skipping && c >= '0' && c <= '9' then (acc, true)
           else (c :: acc, false))
         ([], false)
    |> fun (acc, _) -> String.init (List.length acc) (List.nth (List.rev acc))
  in
  let capture seed =
    let sink = Trace.create () in
    Trace.with_t sink (fun () ->
        ignore (Vino_disaster.Campaign.run ~seed ~count:12 ()));
    List.map
      (fun s -> strip_uniquifier (Format.asprintf "%a" Span.pp s))
      (Trace.spans sink)
  in
  let a = capture 7 and b = capture 7 and c = capture 8 in
  Alcotest.(check (list string)) "same seed, identical spans" a b;
  if a = c then Alcotest.fail "different seeds produced identical spans"

(* Golden zero-cost test: the Table 3 cycle counts must be bit-identical
   with a sink installed and without. Tracing never touches the virtual
   clock, so even a full sink must not move a measurement. *)
let zero_cost_golden () =
  let measure () =
    List.map
      (fun p -> Vino_measure.Sc_readahead.measure ~iterations:5 p)
      [ Vino_measure.Path.Base; Vino_measure.Path.Vino;
        Vino_measure.Path.Null; Vino_measure.Path.Unsafe;
        Vino_measure.Path.Safe ]
  in
  let plain = measure () in
  let sink = Trace.create () in
  let traced = Trace.with_t sink (fun () -> measure ()) in
  let again = measure () in
  Alcotest.(check (list (float 0.0))) "sink installed: identical" plain traced;
  Alcotest.(check (list (float 0.0))) "sink removed again: identical" plain again;
  if Trace.counter_value sink "txn.begins" = 0 then
    Alcotest.fail "sink saw no events — instrumentation not wired"

(* The profiler splits an invocation into sandbox/body/txn/undo with
   body = total - charged buckets. *)
let profile_buckets () =
  let p = Profile.create () in
  Profile.push_frame p ~ctx:1 ~point:"gp" ~now:100;
  Profile.charge p ~ctx:1 Profile.Sandbox 10;
  Profile.charge p ~ctx:1 Profile.Txn 20;
  Profile.charge p ~ctx:1 Profile.Undo 5;
  Profile.pop_frame p ~ctx:1 ~now:200;
  match Profile.rows p with
  | [ r ] ->
      Alcotest.(check string) "point" "gp" r.Profile.point;
      Alcotest.(check int) "total" 100 r.Profile.total;
      Alcotest.(check int) "sandbox" 10 r.Profile.sandbox;
      Alcotest.(check int) "txn" 20 r.Profile.txn;
      Alcotest.(check int) "undo" 5 r.Profile.undo;
      Alcotest.(check int) "body" 65 r.Profile.body
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

(* Nested invocations: the child's cycles are excluded from the parent's
   total, so per-point numbers don't double-count. *)
let profile_nesting () =
  let p = Profile.create () in
  Profile.push_frame p ~ctx:1 ~point:"outer" ~now:0;
  Profile.push_frame p ~ctx:1 ~point:"inner" ~now:10;
  Profile.charge p ~ctx:1 Profile.Txn 4;
  Profile.pop_frame p ~ctx:1 ~now:40;
  Profile.pop_frame p ~ctx:1 ~now:100;
  let find name =
    List.find (fun r -> r.Profile.point = name) (Profile.rows p)
  in
  Alcotest.(check int) "inner total" 30 (find "inner").Profile.total;
  Alcotest.(check int) "outer total excludes inner" 70 (find "outer").Profile.total;
  Alcotest.(check int) "inner txn charge stays inner" 4 (find "inner").Profile.txn;
  Alcotest.(check int) "outer txn" 0 (find "outer").Profile.txn

let audit_ring () =
  let a = Audit.create ~capacity:3 () in
  for k = 1 to 5 do
    Audit.record a ~now_us:(float_of_int k)
      (Audit.Graft_removed { point = Printf.sprintf "p%d" k })
  done;
  Alcotest.(check int) "count capped" 3 (Audit.count a);
  Alcotest.(check int) "total" 5 (Audit.total a);
  Alcotest.(check int) "dropped" 2 (Audit.dropped a);
  (match Audit.entries a with
  | { Audit.event = Audit.Graft_removed { point }; _ } :: _ ->
      Alcotest.(check string) "oldest retained" "p3" point
  | _ -> Alcotest.fail "unexpected audit entries");
  Audit.clear a;
  Alcotest.(check int) "cleared" 0 (Audit.count a);
  Alcotest.(check int) "cleared dropped" 0 (Audit.dropped a)

let audit_counters_unified () =
  let sink = Trace.create () in
  Trace.with_t sink (fun () ->
      let a = Audit.create () in
      Audit.record a ~now_us:1.0
        (Audit.Graft_installed { point = "p"; user = "u" });
      Audit.record a ~now_us:2.0
        (Audit.Graft_failed { point = "p"; reason = "r" }));
  Alcotest.(check int) "audit.graft_installed" 1
    (Trace.counter_value sink "audit.graft_installed");
  Alcotest.(check int) "audit.graft_failed" 1
    (Trace.counter_value sink "audit.graft_failed")

let json_roundtrip () =
  let j =
    Json.Obj
      [
        ("s", Json.String "he\"llo\n");
        ("n", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("nil", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Int 2 ]);
      ]
  in
  match Json.of_string (Json.to_string j) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j' ->
      Alcotest.(check string) "roundtrip" (Json.to_string j) (Json.to_string j');
      (match Json.member "n" j' with
      | Some v -> Alcotest.(check (option int)) "int" (Some (-42)) (Json.int_value v)
      | None -> Alcotest.fail "missing n")

(* Every byte below 0x80 survives escape + parse, the escaped text holds
   no raw control byte, and for printable ASCII (plus the newline, tab and
   carriage return) it is byte-identical to OCaml's [%S] — the encoding
   the CLI's JSON writers used before. *)
let json_escape_control_bytes () =
  let all = String.init 128 Char.chr in
  let escaped = Json.escape all in
  Alcotest.(check bool)
    "no raw control byte" true
    (String.for_all (fun c -> Char.code c >= 0x20) escaped);
  (match Json.of_string ("\"" ^ escaped ^ "\"") with
  | Ok (Json.String s) -> Alcotest.(check string) "round-trip" all s
  | Ok _ -> Alcotest.fail "not a string"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  let printable =
    String.init 95 (fun k -> Char.chr (0x20 + k)) ^ "\n\t\r"
  in
  Alcotest.(check string)
    "printable ASCII matches %S" (Printf.sprintf "%S" printable)
    ("\"" ^ Json.escape printable ^ "\"")

let report_json_shape () =
  let sink = Trace.create () in
  Trace.with_t sink (fun () ->
      ignore (Vino_disaster.Campaign.run ~seed:3 ~count:5 ()));
  let j = Trace.report_json ~scenario:"test" sink in
  (match Json.member "schema" j with
  | Some (Json.String "vino-trace-v1") -> ()
  | _ -> Alcotest.fail "bad schema");
  (match Json.member "profile" j with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "empty profile");
  match Json.of_string (Json.to_string j) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "report does not re-parse: %s" e

let suite =
  [
    ( "trace",
      [
        Alcotest.test_case "ring: wraparound + dropped accounting" `Quick
          ring_wraparound;
        Alcotest.test_case "ring: partial fill, bad capacity" `Quick
          ring_partial;
        Alcotest.test_case "span ring drops oldest" `Quick span_ring_drops;
        Alcotest.test_case "counters are monotonic" `Quick counter_monotonic;
        Alcotest.test_case "campaign only moves counters up" `Quick
          campaign_counters;
        Alcotest.test_case "same seed, identical span stream" `Quick
          same_seed_same_spans;
        Alcotest.test_case "golden: sink leaves Table 3 cycles bit-identical"
          `Quick zero_cost_golden;
        Alcotest.test_case "profiler: sandbox/body/txn/undo buckets" `Quick
          profile_buckets;
        Alcotest.test_case "profiler: nested invocations don't double-count"
          `Quick profile_nesting;
        Alcotest.test_case "audit: ring cap, dropped, clear" `Quick audit_ring;
        Alcotest.test_case "audit: events bump unified counters" `Quick
          audit_counters_unified;
        Alcotest.test_case "json: emit/parse roundtrip" `Quick json_roundtrip;
        Alcotest.test_case "trace report json re-parses" `Quick
          report_json_shape;
        Alcotest.test_case "ring restore: fewer pushes than capacity" `Quick
          ring_restore_partial_fill;
        Alcotest.test_case "ring restore: after a wrap" `Quick
          ring_restore_after_wrap;
        Alcotest.test_case "ring restore: after clear" `Quick
          ring_restore_after_clear;
        Alcotest.test_case "ring restore: twice in a row" `Quick
          ring_restore_twice;
        Alcotest.test_case "ring restore: two captures alternately" `Quick
          ring_restore_two_captures;
        Alcotest.test_case "json: control bytes round-trip through escape"
          `Quick json_escape_control_bytes;
      ] );
  ]
