(* Property tests for {!Vino_sim.Pqueue}: the event queue's determinism
   rests on pops coming back sorted by key with FIFO order among equal
   keys. The model is a list kept in (key, insertion-sequence) order;
   random interleavings of adds and pops must agree with it at every
   step, including mid-stream pops, not just on a final drain. *)

module Pqueue = Vino_sim.Pqueue

let pop_opt q =
  if Pqueue.is_empty q then None
  else
    let k = Pqueue.peek_key q in
    Some (k, Pqueue.pop q)

type op = Add of int | Pop

let gen_ops =
  (* Small key range so equal keys are common — that's where FIFO
     stability can break. *)
  QCheck2.Gen.(
    list_size (int_range 0 200)
      (frequency
         [ (3, map (fun k -> Add k) (int_range 0 8)); (2, pure Pop) ]))

let pp_op = function Add k -> Printf.sprintf "add %d" k | Pop -> "pop"

let print_ops ops = String.concat "; " (List.map pp_op ops)

let prop_matches_model =
  QCheck2.Test.make ~name:"pops sorted by key, FIFO within equal keys"
    ~count:500 ~print:print_ops gen_ops (fun ops ->
      let q = Pqueue.create () in
      let model = ref [] (* (key, seq) in pop order *) and seq = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | Add k ->
              Pqueue.add q ~key:k ~gen:0 !seq;
              (* stable insert: strictly-greater keys stay behind us *)
              let rec insert = function
                | (k', s') :: rest when k' <= k -> (k', s') :: insert rest
                | rest -> (k, !seq) :: rest
              in
              model := insert !model;
              incr seq;
              Pqueue.length q = List.length !model
          | Pop -> (
              match (pop_opt q, !model) with
              | None, [] -> true
              | Some (k, v), (mk, ms) :: rest ->
                  model := rest;
                  k = mk && v = ms
              | Some _, [] | None, _ :: _ ->
                  QCheck2.Test.fail_report
                    "queue and model disagree on empty"))
        ops
      &&
      (* drain: whatever remains must still come out in model order *)
      let rec drain () =
        match (pop_opt q, !model) with
        | None, [] -> Pqueue.is_empty q
        | Some (k, v), (mk, ms) :: rest ->
            model := rest;
            k = mk && v = ms && drain ()
        | Some _, [] | None, _ :: _ -> false
      in
      drain ())

let prop_peek_consistent =
  QCheck2.Test.make ~name:"peek_key agrees with the next pop" ~count:200
    QCheck2.Gen.(list_size (int_range 1 60) (int_range 0 10))
    (fun keys ->
      let q = Pqueue.create () in
      List.iteri (fun i k -> Pqueue.add q ~key:k ~gen:0 i) keys;
      let rec loop () =
        Pqueue.is_empty q
        ||
        let pk = Pqueue.peek_key q in
        match pop_opt q with Some (k, _) -> k = pk && loop () | None -> false
      in
      loop ())

(* Adds and pops interleaved, so both sources hold entries. *)
let build ops =
  let q = Pqueue.create () in
  List.iteri
    (fun i op ->
      match op with
      | Add k -> Pqueue.add q ~key:k ~gen:(i * 7) i
      | Pop -> ignore (pop_opt q))
    ops;
  q

let drain q =
  let rec go acc =
    if Pqueue.is_empty q then List.rev acc
    else
      let k = Pqueue.peek_key q and g = Pqueue.peek_gen q in
      go ((k, g, Pqueue.pop q) :: acc)
  in
  go []

let prop_gens_travel =
  QCheck2.Test.make ~name:"each pop's generation is its entry's" ~count:300
    ~print:print_ops gen_ops (fun ops ->
      List.for_all (fun (_, g, v) -> g = v * 7) (drain (build ops)))

(* Entries come back in insertion order before any pop, whether or not
   a peek has already sealed the run, and rebuild the same pop order. *)
let prop_entries_rebuild =
  QCheck2.Test.make ~name:"entries re-added after clear keep pop order"
    ~count:300 ~print:print_ops gen_ops (fun ops ->
      let q = Pqueue.create () and added = ref [] in
      List.iteri
        (fun i op ->
          match op with
          | Add k ->
              Pqueue.add q ~key:k ~gen:(i * 7) i;
              added := (k, i) :: !added
          | Pop -> if not (Pqueue.is_empty q) then ignore (Pqueue.peek_key q))
        ops;
      let live = Pqueue.entries q in
      let rebuilt = Pqueue.create () in
      List.iter (fun (k, v) -> Pqueue.add rebuilt ~key:k ~gen:(v * 7) v) live;
      let order = drain q in
      live = List.rev !added
      && order = drain rebuilt
      && (order = []
         ||
         match Pqueue.entries q with
         | _ -> false
         | exception Invalid_argument _ -> true))

(* What {!Vino_sim.Engine.run} reads: one head's key, generation and
   value, with adds and pops interleaved, agree with peek and pop on a
   twin queue. *)
let prop_head_reads_one_entry =
  QCheck2.Test.make ~name:"head's key, gen and pop_head match peek and pop"
    ~count:300 ~print:print_ops gen_ops (fun ops ->
      let q = build ops and twin = build ops in
      let rec go () =
        let s = Pqueue.head q in
        if s < 0 then Pqueue.is_empty twin
        else
          let k = Pqueue.key q s and g = Pqueue.gen q s in
          let v = Pqueue.pop_head q s in
          let k' = Pqueue.peek_key twin and g' = Pqueue.peek_gen twin in
          k = k' && g = g' && v = Pqueue.pop twin && go ()
      in
      go ())

let suite =
  [
    ( "pqueue",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_matches_model;
          prop_peek_consistent;
          prop_gens_travel;
          prop_entries_rebuild;
          prop_head_reads_one_entry;
        ] );
  ]
