(* Tests for the scheduler and the schedule-delegate graft point. *)

module Engine = Vino_sim.Engine
module Kernel = Vino_core.Kernel
module Graft_point = Vino_core.Graft_point
module Cred = Vino_core.Cred
module Rlimit = Vino_txn.Rlimit
module Runq = Vino_sched.Runq
module Grafts = Vino_sched.Grafts

let app = Cred.user "sched-test" ~limits:(Rlimit.unlimited ())

type fx = { kernel : Kernel.t; runq : Runq.t }

let fixture ?(tasks = 3) () =
  let kernel = Kernel.create ~mem_words:(1 lsl 16) () in
  let runq = Runq.create kernel () in
  let ts =
    List.init tasks (fun k ->
        Runq.spawn_task runq ~name:(Printf.sprintf "t%d" k))
  in
  ({ kernel; runq }, ts)

let in_kernel fx f =
  ignore (Engine.spawn fx.kernel.Kernel.engine ~name:"body" f);
  Kernel.run fx.kernel;
  match Engine.failures fx.kernel.Kernel.engine with
  | [] -> ()
  | (name, exn) :: _ ->
      Alcotest.failf "process %s: %s" name (Printexc.to_string exn)

let schedule_ids fx n =
  let ids = ref [] in
  in_kernel fx (fun () ->
      for _ = 1 to n do
        match Runq.schedule fx.runq ~cred:app with
        | Some task -> ids := Runq.task_id task :: !ids
        | None -> Alcotest.fail "empty run queue"
      done);
  List.rev !ids

let install_delegate fx task source =
  let image =
    match Kernel.seal fx.kernel (Vino_vm.Asm.assemble_exn source) with
    | Ok i -> i
    | Error e -> Alcotest.fail e
  in
  match
    Graft_point.replace (Runq.delegate_point task) fx.kernel ~cred:app
      ~shared_words:4 image
  with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_round_robin () =
  let fx, tasks = fixture () in
  let ids = List.map Runq.task_id tasks in
  Alcotest.(check (list int)) "cyclic order" (ids @ ids) (schedule_ids fx 6)

let test_switch_charges_time () =
  let fx, _ = fixture () in
  let elapsed = ref 0 in
  in_kernel fx (fun () ->
      let t0 = Engine.now fx.kernel.Kernel.engine in
      ignore (Runq.schedule fx.runq ~cred:app);
      elapsed := Engine.now fx.kernel.Kernel.engine - t0);
  Alcotest.(check bool) "~27+1 us per decision" true
    (let us = Vino_vm.Costs.us_of_cycles !elapsed in
     us >= 27. && us <= 30.)

let test_handoff_delegate () =
  let fx, tasks = fixture () in
  let a, b =
    match tasks with a :: b :: _ -> (a, b) | _ -> assert false
  in
  Runq.join_group fx.runq a ~group:7;
  Runq.join_group fx.runq b ~group:7;
  install_delegate fx a (Grafts.handoff_source ~target:(Runq.task_id b));
  let ids = schedule_ids fx 3 in
  Alcotest.(check int) "a's slot went to b" (Runq.task_id b) (List.nth ids 0);
  Alcotest.(check int) "redirect counted" 1
    (Runq.delegate_redirects fx.runq)

let test_delegation_needs_group_consent () =
  let fx, tasks = fixture () in
  let a, b =
    match tasks with a :: b :: _ -> (a, b) | _ -> assert false
  in
  (* b never consented *)
  Runq.join_group fx.runq a ~group:7;
  install_delegate fx a (Grafts.handoff_source ~target:(Runq.task_id b));
  let ids = schedule_ids fx 3 in
  Alcotest.(check int) "a keeps its own slot" (Runq.task_id a)
    (List.nth ids 0);
  Alcotest.(check int) "rejected as antisocial" 1
    (Runq.invalid_delegations fx.runq)

(* A delegate that names no live task keeps its caller's slot: an id no
   task ever had, -1, and the id of a removed task that had joined the
   caller's group. *)
let test_bogus_tid_rejected () =
  let bogus what target_of =
    let fx, tasks = fixture () in
    let a, b =
      match tasks with a :: b :: _ -> (a, b) | _ -> assert false
    in
    Runq.join_group fx.runq a ~group:7;
    Runq.join_group fx.runq b ~group:7;
    Runq.remove_task fx.runq b;
    install_delegate fx a (Grafts.handoff_source ~target:(target_of b));
    let ids = schedule_ids fx 1 in
    Alcotest.(check int) (what ^ ": fallback to self") (Runq.task_id a)
      (List.hd ids);
    Alcotest.(check int) (what ^ ": invalid counted") 1
      (Runq.invalid_delegations fx.runq)
  in
  bogus "never issued" (fun _ -> 424242);
  bogus "-1" (fun _ -> -1);
  bogus "removed task" Runq.task_id

let test_scan_delegate_returns_self () =
  let fx, tasks = fixture ~tasks:8 () in
  let a = List.hd tasks in
  install_delegate fx a
    (Grafts.scan_and_return_self_source
       ~lock_kcall:(Runq.proclist_lock_name fx.runq)
       ());
  let ids = schedule_ids fx 1 in
  Alcotest.(check int) "scanning delegate keeps the slot" (Runq.task_id a)
    (List.hd ids);
  Alcotest.(check bool) "graft survived" true
    (Graft_point.grafted (Runq.delegate_point a))

let test_crashing_delegate_falls_back () =
  let fx, tasks = fixture () in
  let a = List.hd tasks in
  install_delegate fx a
    [
      Li (Vino_vm.Asm.r5, 0);
      Li (Vino_vm.Asm.r6, 1);
      Alu (Vino_vm.Insn.Div, Vino_vm.Asm.r0, Vino_vm.Asm.r6, Vino_vm.Asm.r5);
      Ret;
    ];
  let ids = schedule_ids fx 1 in
  Alcotest.(check int) "self scheduled via default" (Runq.task_id a)
    (List.hd ids);
  Alcotest.(check bool) "crashing delegate removed" false
    (Graft_point.grafted (Runq.delegate_point a))

let test_remove_task_skipped () =
  let fx, tasks = fixture () in
  let a, b, c =
    match tasks with [ a; b; c ] -> (a, b, c) | _ -> assert false
  in
  Runq.remove_task fx.runq b;
  let ids = schedule_ids fx 4 in
  Alcotest.(check (list int)) "b skipped"
    [ Runq.task_id a; Runq.task_id c; Runq.task_id a; Runq.task_id c ]
    ids

let suite =
  [
    ( "sched",
      [
        Alcotest.test_case "round robin" `Quick test_round_robin;
        Alcotest.test_case "switch cost charged" `Quick
          test_switch_charges_time;
        Alcotest.test_case "handoff delegate (UI to video)" `Quick
          test_handoff_delegate;
        Alcotest.test_case "delegation needs group consent (Rule 8)" `Quick
          test_delegation_needs_group_consent;
        Alcotest.test_case "bogus tid rejected via hash check" `Quick
          test_bogus_tid_rejected;
        Alcotest.test_case "64-entry scan delegate returns self" `Quick
          test_scan_delegate_returns_self;
        Alcotest.test_case "crashing delegate removed, default used" `Quick
          test_crashing_delegate_falls_back;
        Alcotest.test_case "removed tasks skipped" `Quick
          test_remove_task_skipped;
      ] );
  ]
