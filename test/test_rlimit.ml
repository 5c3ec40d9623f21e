(* Tests for per-thread resource limits (quantity-constrained resources). *)

module Rlimit = Vino_txn.Rlimit

let granted = function Ok () -> true | Error `Denied -> false

let test_zero_limits_deny_everything () =
  (* "When a graft is installed, it initially has limits of zero." *)
  let graft = Rlimit.zero () in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Rlimit.resource_name r ^ " denied")
        false
        (granted (Rlimit.request graft r 1)))
    Rlimit.all_resources

let test_request_release () =
  let t = Rlimit.create ~memory_words:100 () in
  Alcotest.(check bool) "grant within limit" true
    (granted (Rlimit.request t Memory_words 60));
  Alcotest.(check int) "used" 60 (Rlimit.used t Memory_words);
  Alcotest.(check bool) "deny past limit" false
    (granted (Rlimit.request t Memory_words 41));
  Alcotest.(check bool) "grant exactly to limit" true
    (granted (Rlimit.request t Memory_words 40));
  Rlimit.release t Memory_words 100;
  Alcotest.(check int) "all released" 0 (Rlimit.used t Memory_words);
  Rlimit.release t Memory_words 7;
  Alcotest.(check int) "over-release clamps" 0 (Rlimit.used t Memory_words)

let test_transfer () =
  (* "The installing thread may transfer arbitrary amounts from its own
     limits to the newly installed graft." *)
  let installer = Rlimit.create ~memory_words:100 () in
  let graft = Rlimit.zero () in
  Alcotest.(check bool) "transfer ok" true
    (granted (Rlimit.transfer ~src:installer ~dst:graft Memory_words 30));
  Alcotest.(check int) "graft limit" 30 (Rlimit.limit graft Memory_words);
  Alcotest.(check int) "installer limit" 70
    (Rlimit.limit installer Memory_words);
  Alcotest.(check bool) "graft can now allocate" true
    (granted (Rlimit.request graft Memory_words 30))

let test_transfer_respects_usage () =
  let src = Rlimit.create ~memory_words:100 () in
  ignore (Rlimit.request src Memory_words 80);
  let dst = Rlimit.zero () in
  Alcotest.(check bool) "cannot strand usage" false
    (granted (Rlimit.transfer ~src ~dst Memory_words 30));
  Alcotest.(check bool) "up to slack is fine" true
    (granted (Rlimit.transfer ~src ~dst Memory_words 20))

let test_delegation_shares_account () =
  (* "...or the thread can request that all of the graft's allocation
     requests be billed against the installing thread's own limits." *)
  let installer = Rlimit.create ~memory_words:50 () in
  let graft = Rlimit.delegate installer in
  Alcotest.(check bool) "same account" true
    (Rlimit.same_account installer graft);
  ignore (Rlimit.request graft Memory_words 30);
  Alcotest.(check int) "billed to installer" 30
    (Rlimit.used installer Memory_words);
  Alcotest.(check bool) "installer squeezed out" false
    (granted (Rlimit.request installer Memory_words 21));
  Alcotest.(check bool) "transfer to self denied" false
    (granted (Rlimit.transfer ~src:installer ~dst:graft Memory_words 10))

let test_pooling () =
  (* Multiple processes pooling memory for a shared buffer pool. *)
  let a = Rlimit.create ~memory_words:10 () in
  let b = Rlimit.create ~memory_words:15 () in
  let pool = Rlimit.zero () in
  ignore (Rlimit.transfer ~src:a ~dst:pool Memory_words 10);
  ignore (Rlimit.transfer ~src:b ~dst:pool Memory_words 15);
  Alcotest.(check int) "pooled" 25 (Rlimit.limit pool Memory_words);
  Alcotest.(check bool) "pool usable" true
    (granted (Rlimit.request pool Memory_words 25))

let test_invalid_amounts () =
  let t = Rlimit.unlimited () in
  Alcotest.check_raises "request 0"
    (Invalid_argument "Rlimit.request: amount must be positive") (fun () ->
      ignore (Rlimit.request t Memory_words 0));
  Alcotest.check_raises "release -1"
    (Invalid_argument "Rlimit.release: amount must be positive") (fun () ->
      Rlimit.release t Memory_words (-1))

(* Property: usage never exceeds limit under any op sequence. *)
let prop_usage_bounded =
  QCheck2.Test.make ~name:"usage never exceeds limit" ~count:300
    QCheck2.Gen.(
      pair (int_range 0 1000)
        (list_size (int_range 0 60) (pair bool (int_range 1 100))))
    (fun (limit, ops) ->
      let t = Rlimit.create ~memory_words:limit () in
      List.iter
        (fun (is_request, n) ->
          if is_request then ignore (Rlimit.request t Memory_words n)
          else Rlimit.release t Memory_words n)
        ops;
      Rlimit.used t Memory_words >= 0
      && Rlimit.used t Memory_words <= Rlimit.limit t Memory_words)

let suite =
  [
    ( "rlimit",
      [
        Alcotest.test_case "new grafts start at zero" `Quick
          test_zero_limits_deny_everything;
        Alcotest.test_case "request/release accounting" `Quick
          test_request_release;
        Alcotest.test_case "transfer moves headroom" `Quick test_transfer;
        Alcotest.test_case "transfer cannot strand usage" `Quick
          test_transfer_respects_usage;
        Alcotest.test_case "delegation bills the installer" `Quick
          test_delegation_shares_account;
        Alcotest.test_case "pooled delegation (shared buffer pool)" `Quick
          test_pooling;
        Alcotest.test_case "invalid amounts rejected" `Quick
          test_invalid_amounts;
        QCheck_alcotest.to_alcotest prop_usage_bounded;
      ] );
  ]
