(* Tests for the buddy segment allocator. *)

module Segalloc = Vino_core.Segalloc
module Mem = Vino_vm.Mem

let alloc_exn t words =
  match Segalloc.alloc t words with
  | Ok seg -> seg
  | Error `No_memory -> Alcotest.fail "unexpected out of memory"

let test_alloc_returns_valid_segments () =
  let t = Segalloc.create ~base:0 ~size:1024 in
  let seg = alloc_exn t 100 in
  Alcotest.(check int) "rounded to power of two" 128 seg.Mem.size;
  Alcotest.(check int) "aligned" 0 (seg.Mem.base mod seg.Mem.size)

let test_minimum_block () =
  let t = Segalloc.create ~base:0 ~size:1024 in
  let seg = alloc_exn t 1 in
  Alcotest.(check int) "minimum 8 words" 8 seg.Mem.size

let test_exhaustion () =
  let t = Segalloc.create ~base:0 ~size:64 in
  let _a = alloc_exn t 32 in
  let _b = alloc_exn t 32 in
  match Segalloc.alloc t 8 with
  | Error `No_memory -> ()
  | Ok _ -> Alcotest.fail "allocator overcommitted"

let test_free_and_coalesce () =
  let t = Segalloc.create ~base:0 ~size:256 in
  let a = alloc_exn t 64 in
  let b = alloc_exn t 64 in
  let c = alloc_exn t 64 in
  let d = alloc_exn t 64 in
  Alcotest.(check int) "fully used" 0 (Segalloc.free_words t);
  Segalloc.free t a;
  Segalloc.free t b;
  Segalloc.free t c;
  Segalloc.free t d;
  Alcotest.(check int) "fully free" 256 (Segalloc.free_words t);
  (* after full coalescing a maximal block must be available again *)
  let big = alloc_exn t 256 in
  Alcotest.(check int) "coalesced to max block" 256 big.Mem.size

let test_double_free_rejected () =
  let t = Segalloc.create ~base:0 ~size:64 in
  let seg = alloc_exn t 8 in
  Segalloc.free t seg;
  match Segalloc.free t seg with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "double free accepted"

let test_nonzero_base () =
  let t = Segalloc.create ~base:4096 ~size:1024 in
  let seg = alloc_exn t 100 in
  Alcotest.(check bool) "within arena" true
    (seg.Mem.base >= 4096 && seg.Mem.base + seg.Mem.size <= 4096 + 1024);
  Alcotest.(check int) "aligned for sandboxing" 0
    (seg.Mem.base mod seg.Mem.size)

(* Property: random alloc/free traces never hand out overlapping segments,
   and free+coalesce conserves total memory. *)
let prop_no_overlap =
  QCheck2.Test.make ~name:"segments never overlap; memory conserved"
    ~count:150
    QCheck2.Gen.(list_size (int_range 1 60) (int_range 1 100))
    (fun sizes ->
      let t = Segalloc.create ~base:0 ~size:4096 in
      let live = ref [] in
      let overlap (a : Mem.segment) (b : Mem.segment) =
        a.Mem.base < b.Mem.base + b.Mem.size
        && b.Mem.base < a.Mem.base + a.Mem.size
      in
      let ok = ref true in
      List.iteri
        (fun k words ->
          (* every third step frees the oldest live segment *)
          if k mod 3 = 2 && !live <> [] then begin
            match List.rev !live with
            | oldest :: _ ->
                Segalloc.free t oldest;
                live := List.filter (fun s -> s != oldest) !live
            | [] -> ()
          end
          else
            match Segalloc.alloc t words with
            | Error `No_memory -> ()
            | Ok seg ->
                if List.exists (overlap seg) !live then ok := false;
                live := seg :: !live)
        sizes;
      let live_words =
        List.fold_left (fun acc (s : Mem.segment) -> acc + s.Mem.size) 0 !live
      in
      !ok && Segalloc.used_words t = live_words)

(* ------------------------- snapshot / restore ------------------------- *)

let sorted segs =
  List.sort compare
    (List.map (fun (s : Mem.segment) -> (s.Mem.base, s.Mem.size)) segs)

(* Property: [blocks] lists exactly the live segments, and after a restore
   replaying the same operations yields the same segments (the allocation
   addresses replay exactly) and the same block list. Sizes of 0 free the
   oldest live segment. *)
let prop_fresh_blocks_exact =
  QCheck2.Test.make ~name:"fresh-block list exact; restore rewinds it"
    ~count:150
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 40) (int_range 0 100))
        (list_size (int_range 1 40) (int_range 0 100)))
    (fun (prefix, suffix) ->
      let t = Segalloc.create ~base:0 ~size:4096 in
      let live = ref [] and handed = ref [] in
      let step words =
        if words = 0 then (
          match List.rev !live with
          | oldest :: _ ->
              Segalloc.free t oldest;
              live := List.filter (fun s -> s != oldest) !live
          | [] -> ())
        else
          match Segalloc.alloc t words with
          | Error `No_memory -> ()
          | Ok seg ->
              live := seg :: !live;
              handed := seg :: !handed
      in
      let exact () = sorted (Segalloc.blocks t) = sorted !live in
      List.iter step prefix;
      let listed_ok = exact () in
      let snap = Segalloc.snapshot t in
      let live0 = !live in
      let run_suffix () =
        handed := [];
        List.iter step suffix;
        (!handed, exact ())
      in
      let first = run_suffix () in
      Segalloc.restore t snap;
      live := live0;
      let rewound = exact () in
      let second = run_suffix () in
      listed_ok && snd first && rewound && first = second)

let suite =
  [
    ( "segalloc",
      [
        Alcotest.test_case "valid aligned power-of-two segments" `Quick
          test_alloc_returns_valid_segments;
        Alcotest.test_case "minimum block size" `Quick test_minimum_block;
        Alcotest.test_case "exhaustion reported" `Quick test_exhaustion;
        Alcotest.test_case "free coalesces buddies" `Quick
          test_free_and_coalesce;
        Alcotest.test_case "double free rejected" `Quick
          test_double_free_rejected;
        Alcotest.test_case "non-zero arena base" `Quick test_nonzero_base;
        QCheck_alcotest.to_alcotest prop_no_overlap;
        QCheck_alcotest.to_alcotest prop_fresh_blocks_exact;
      ] );
  ]
