module Engine = Vino_sim.Engine
module Kernel = Vino_core.Kernel
module Lock = Vino_txn.Lock
module Lock_policy = Vino_txn.Lock_policy

let uncontended_cost ?(iterations = 300) ~factored () =
  let kernel = Kernel.create ~mem_words:(1 lsl 12) () in
  let policy =
    if factored then Lock_policy.factored Lock_policy.reader_priority
    else Lock_policy.reader_priority
  in
  let lock = Kernel.make_lock kernel ~policy ~name:"factoring" () in
  let owner = Lock.plain_owner "bench" in
  Probe.mean_us kernel ~iterations (fun _ ->
      match Lock.acquire lock Exclusive owner () with
      | Lock.Granted held -> Lock.release held
      | Lock.Gave_up reason -> failwith reason)

let indirection_cost_us () =
  Vino_vm.Costs.us_of_cycles (2 * Vino_txn.Tcosts.default.policy_indirection)

let contended_trace ~policy () =
  let kernel = Kernel.create ~mem_words:(1 lsl 12) () in
  let lock = Kernel.make_lock kernel ~policy ~name:"contended" () in
  let engine = kernel.Kernel.engine in
  let grants = ref [] in
  let actor name ~start ~mode ~hold =
    ignore
      (Engine.spawn engine ~name (fun () ->
           Engine.delay start;
           match Lock.acquire lock mode (Lock.plain_owner name) () with
           | Lock.Granted held ->
               grants := name :: !grants;
               Engine.delay hold;
               Lock.release held
           | Lock.Gave_up reason -> failwith reason))
  in
  actor "reader-1" ~start:0 ~mode:Shared ~hold:20_000;
  actor "writer" ~start:2_000 ~mode:Exclusive ~hold:2_000;
  actor "reader-2" ~start:4_000 ~mode:Shared ~hold:2_000;
  Kernel.run kernel;
  List.rev !grants

let table ?iterations () =
  let conventional = uncontended_cost ?iterations ~factored:false () in
  let factored = uncontended_cost ?iterations ~factored:true () in
  let trace policy = String.concat " -> " (contended_trace ~policy ()) in
  [
    Table.elapsed "get_lock, conventional (Fig 4)" conventional;
    Table.elapsed "get_lock, fully factored (Fig 5)" factored;
    Table.overhead
      ~paper:(indirection_cost_us ())
      "two policy indirections" (factored -. conventional);
    Table.elapsed
      ~paper:(float_of_int (2 * Vino_txn.Tcosts.default.policy_indirection))
      "  (in cycles)"
      (Float.of_int
         (Vino_vm.Costs.cycles_of_us (factored -. conventional)));
    Table.elapsed
      (Printf.sprintf "reader-priority grant order: %s"
         (trace Lock_policy.reader_priority))
      0.;
    Table.elapsed
      (Printf.sprintf "fifo-fair grant order:       %s"
         (trace (Lock_policy.factored Lock_policy.fifo_fair)))
      0.;
  ]
