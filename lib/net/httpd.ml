module Asm = Vino_vm.Asm
module Kernel = Vino_core.Kernel
module Kcall = Vino_core.Kcall
module Event_point = Vino_core.Event_point
module Txn = Vino_txn.Txn

type t = {
  kernel : Kernel.t;
  port : Port.t;
  docs : (int, int) Hashtbl.t;
  mutable resp : (int * int) list; (* newest first *)
}

let method_get = 1

let create kernel ?(port = 80) ?budget () =
  let t =
    {
      kernel;
      port = Port.create ?budget kernel Tcp ~number:port;
      docs = Hashtbl.create 16;
      resp = [];
    }
  in
  if Kcall.find_by_name kernel.Kernel.registry "http.lookup" <> None then
    invalid_arg "Httpd.create: kernel already has an HTTP server";
  let (_ : Kcall.fn) =
    Kernel.register_kcall kernel ~name:"http.lookup" (fun ctx ->
        let path = Kcall.arg ctx.Kcall.cpu 0 in
        let size =
          match Hashtbl.find_opt t.docs path with Some s -> s | None -> -1
        in
        Kcall.return ctx.Kcall.cpu size;
        Kcall.ok)
  in
  let (_ : Kcall.fn) =
    Kernel.register_kcall kernel ~name:"http.respond" (fun ctx ->
        let status = Kcall.arg ctx.Kcall.cpu 0 in
        let size = Kcall.arg ctx.Kcall.cpu 1 in
        let log () = t.resp <- (status, size) :: t.resp in
        (* an aborted handler's response never reaches the client *)
        (match ctx.Kcall.txn with
        | Some txn -> Txn.defer txn log
        | None -> log ());
        Kcall.ok)
  in
  Kernel.on_snapshot kernel (fun () ->
      let docs = Hashtbl.copy t.docs and resp = t.resp in
      fun () ->
        Hashtbl.reset t.docs;
        Hashtbl.iter (Hashtbl.replace t.docs) docs;
        t.resp <- resp);
  t

let port t = t.port
let add_document t ~path ~size = Hashtbl.replace t.docs path size

let server_source : Asm.item list =
  [
    (* r1 = payload address, r2 = length; payload = [method; path] *)
    Ld (Asm.r5, Asm.r1, 0);
    Ld (Asm.r6, Asm.r1, 1);
    Li (Asm.r7, method_get);
    Br (Vino_vm.Insn.Ne, Asm.r5, Asm.r7, "bad_request");
    Mov (Asm.r1, Asm.r6);
    Kcall "http.lookup";
    Li (Asm.r7, 0);
    Br (Vino_vm.Insn.Lt, Asm.r0, Asm.r7, "not_found");
    Mov (Asm.r2, Asm.r0);
    Li (Asm.r1, 200);
    Kcall "http.respond";
    Li (Asm.r0, 0);
    Ret;
    Label "not_found";
    Li (Asm.r1, 404);
    Li (Asm.r2, 0);
    Kcall "http.respond";
    Li (Asm.r0, 0);
    Ret;
    Label "bad_request";
    Li (Asm.r1, 400);
    Li (Asm.r2, 0);
    Kcall "http.respond";
    Li (Asm.r0, 0);
    Ret;
  ]

let install t ~cred =
  match Kernel.seal t.kernel (Asm.assemble_exn server_source) with
  | Error e -> Error e
  | Ok image ->
      Event_point.add_handler (Port.event_point t.port) t.kernel ~cred image

let get t ~path = Port.connect t.port ~payload:[| method_get; path |]
let responses t = List.rev t.resp
