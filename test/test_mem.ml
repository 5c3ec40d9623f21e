(* Tests for simulated memory and SFI segments. *)

module Mem = Vino_vm.Mem

let test_load_store () =
  let m = Mem.create 64 in
  Mem.store m 10 42;
  Alcotest.(check int) "read back" 42 (Mem.load m 10);
  Alcotest.(check int) "zero initialised" 0 (Mem.load m 11);
  Alcotest.(check int) "size" 64 (Mem.size m)

let test_bounds () =
  let m = Mem.create 8 in
  let expect_fault write f =
    match f () with
    | exception Mem.Fault { write = w; _ } ->
        Alcotest.(check bool) "fault kind" write w
    | _ -> Alcotest.fail "expected Mem.Fault"
  in
  expect_fault false (fun () -> Mem.load m 8);
  expect_fault false (fun () -> Mem.load m (-1));
  expect_fault true (fun () ->
      Mem.store m 8 0;
      0);
  expect_fault true (fun () ->
      Mem.store m (-3) 0;
      0)

let test_segment_validation () =
  let ok base size =
    match Mem.segment ~base ~size with
    | (_ : Mem.segment) -> true
    | exception Invalid_argument _ -> false
  in
  Alcotest.(check bool) "aligned power of two" true (ok 64 64);
  Alcotest.(check bool) "base zero" true (ok 0 128);
  Alcotest.(check bool) "non power of two" false (ok 0 48);
  Alcotest.(check bool) "misaligned base" false (ok 32 64);
  Alcotest.(check bool) "zero size" false (ok 0 0)

let test_sandbox_confines () =
  let seg = Mem.segment ~base:128 ~size:64 in
  Alcotest.(check bool) "inside stays" true
    (Mem.sandbox seg 130 >= 128 && Mem.sandbox seg 130 < 192);
  Alcotest.(check int) "inside is identity" 130 (Mem.sandbox seg 130);
  Alcotest.(check bool) "outside forced in" true
    (Mem.in_segment seg (Mem.sandbox seg 5000));
  Alcotest.(check bool) "negative forced in" true
    (Mem.in_segment seg (Mem.sandbox seg (-77)))

let test_blit () =
  let m = Mem.create 32 in
  Mem.blit_in m 4 [| 1; 2; 3 |];
  Alcotest.(check (array int)) "round trip" [| 1; 2; 3 |] (Mem.blit_out m 4 3);
  Mem.blit_in ~len:2 m 10 [| 5; 6; 7 |];
  Alcotest.(check (array int))
    "ranged blit copies a prefix" [| 5; 6; 0 |] (Mem.blit_out m 10 3);
  Alcotest.check_raises "range beyond the source"
    (Invalid_argument "Mem.blit_in") (fun () ->
      Mem.blit_in ~len:4 m 10 [| 1; 2; 3 |]);
  Mem.fill m 0 4 9;
  Alcotest.(check (array int)) "fill" [| 9; 9; 9; 9 |] (Mem.blit_out m 0 4)

(* Regression: blit_in/fill validate the whole range before writing, so
   a faulting call leaves memory untouched (no partial writes). *)
let test_blit_atomic () =
  let m = Mem.create 8 in
  Mem.fill m 0 8 7;
  let untouched what =
    Alcotest.(check (array int)) what (Array.make 8 7) (Mem.blit_out m 0 8)
  in
  (match Mem.blit_in m 6 [| 1; 2; 3 |] with
  | exception Mem.Fault { addr; write } ->
      Alcotest.(check bool) "write fault" true write;
      Alcotest.(check int) "fault at first out-of-bounds word" 8 addr
  | () -> Alcotest.fail "expected Mem.Fault");
  untouched "memory untouched after partial blit fault";
  (match Mem.fill m 5 6 9 with
  | exception Mem.Fault { write; _ } ->
      Alcotest.(check bool) "write fault" true write
  | () -> Alcotest.fail "expected Mem.Fault");
  untouched "memory untouched after partial fill fault";
  (match Mem.blit_in m (-2) [| 1; 2 |] with
  | exception Mem.Fault { addr; _ } ->
      Alcotest.(check int) "negative fault address preserved" (-2) addr
  | () -> Alcotest.fail "expected Mem.Fault");
  untouched "memory untouched after negative-address blit";
  Mem.fill m 3 0 9;
  untouched "zero-length fill is a no-op"

(* Property: sandboxing always produces an in-segment address, and is the
   identity on in-segment addresses. *)
let prop_sandbox =
  QCheck2.Test.make ~name:"sandbox confines every address" ~count:500
    QCheck2.Gen.(
      triple (int_range 0 10) (int_range 0 10) (int_range (-100000) 100000))
    (fun (base_shift, size_shift, addr) ->
      let size = 1 lsl (size_shift + 2) in
      let base = size * base_shift in
      let seg = Mem.segment ~base ~size in
      let s = Mem.sandbox seg addr in
      Mem.in_segment seg s
      && (if Mem.in_segment seg addr then s = addr else true))

let suite =
  [
    ( "mem",
      [
        Alcotest.test_case "load/store round trip" `Quick test_load_store;
        Alcotest.test_case "out-of-bounds access faults" `Quick test_bounds;
        Alcotest.test_case "segment invariant validation" `Quick
          test_segment_validation;
        Alcotest.test_case "sandbox confines addresses" `Quick
          test_sandbox_confines;
        Alcotest.test_case "blit helpers" `Quick test_blit;
        Alcotest.test_case "blit/fill atomicity on faults" `Quick
          test_blit_atomic;
        QCheck_alcotest.to_alcotest prop_sandbox;
      ] );
  ]
