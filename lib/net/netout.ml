module Engine = Vino_sim.Engine
module Waitq = Vino_sim.Waitq
module Kernel = Vino_core.Kernel
module Kcall = Vino_core.Kcall
module Txn = Vino_txn.Txn
module Rlimit = Vino_txn.Rlimit

type t = {
  mutable queue : int list; (* destination tags, FIFO *)
  work : Waitq.t;
  mutable n_transmitted : int;
  by_dest : (int, int) Hashtbl.t;
  mutable n_denied : int;
}

(* one packet's time on the wire *)
let wire_cycles = Vino_txn.Tcosts.us 12.

let rec nic t () =
  match t.queue with
  | [] ->
      Waitq.wait t.work;
      nic t ()
  | dest :: rest ->
      t.queue <- rest;
      Engine.delay wire_cycles;
      t.n_transmitted <- t.n_transmitted + 1;
      Hashtbl.replace t.by_dest dest
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.by_dest dest));
      nic t ()

let enqueue t dest =
  t.queue <- t.queue @ [ dest ];
  ignore (Waitq.signal t.work)

let create kernel () =
  if Kcall.find_by_name kernel.Kernel.registry "net.send" <> None then
    invalid_arg "Netout.create: kernel already has an outbound path";
  let t =
    {
      queue = [];
      work = Waitq.create kernel.Kernel.engine;
      n_transmitted = 0;
      by_dest = Hashtbl.create 16;
      n_denied = 0;
    }
  in
  ignore (Engine.spawn kernel.Kernel.engine ~name:"nic" (fun () -> nic t ()));
  Kernel.on_snapshot kernel (Waitq.saver t.work);
  Kernel.on_snapshot kernel (fun () ->
      let queue = t.queue
      and n_transmitted = t.n_transmitted
      and by_dest = Hashtbl.copy t.by_dest
      and n_denied = t.n_denied in
      fun () ->
        t.queue <- queue;
        t.n_transmitted <- n_transmitted;
        Hashtbl.reset t.by_dest;
        Hashtbl.iter (Hashtbl.replace t.by_dest) by_dest;
        t.n_denied <- n_denied);
  let (_ : Kcall.fn) =
    Kernel.register_kcall kernel ~name:"net.send" (fun ctx ->
        let dest = Kcall.arg ctx.Kcall.cpu 0 in
        match Rlimit.request ctx.Kcall.limits Rlimit.Net_packets 1 with
        | Error `Denied ->
            t.n_denied <- t.n_denied + 1;
            Kcall.return ctx.Kcall.cpu 0;
            Kcall.ok
        | Ok () ->
            (match ctx.Kcall.txn with
            | Some txn ->
                (* refund the quota if the transaction aborts... *)
                Txn.push_undo txn ~label:"net.send.refund" (fun () ->
                    Rlimit.release ctx.Kcall.limits Rlimit.Net_packets 1);
                (* ...and only put the packet on the wire at commit *)
                Txn.defer txn (fun () -> enqueue t dest)
            | None -> enqueue t dest);
            Kcall.return ctx.Kcall.cpu 1;
            Kcall.ok)
  in
  t

let transmitted t = t.n_transmitted

let transmitted_to t ~dest =
  Option.value ~default:0 (Hashtbl.find_opt t.by_dest dest)

let quota_denials t = t.n_denied
