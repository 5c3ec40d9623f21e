module Asm = Vino_vm.Asm
module Kernel = Vino_core.Kernel
module Kcall = Vino_core.Kcall
module Event_point = Vino_core.Event_point
module Txn = Vino_txn.Txn
module File = Vino_fs.File

type status = Ok_read of { cache_hit : bool } | No_such_file | Bad_block

type t = {
  kernel : Kernel.t;
  port : Port.t;
  files : (int, File.t) Hashtbl.t;
  mutable resp : status list; (* newest first *)
}

let op_read = 1

(* reply status codes on the wire *)
let s_ok_hit = 0
let s_ok_miss = 1
let s_noent = 2
let s_badblock = 3

let create kernel ?(port = 2049) () =
  if Kcall.find_by_name kernel.Kernel.registry "nfs.lookup" <> None then
    invalid_arg "Nfsd.create: kernel already has an NFS server";
  let t =
    {
      kernel;
      port = Port.create kernel Udp ~number:port;
      files = Hashtbl.create 8;
      resp = [];
    }
  in
  let (_ : Kcall.fn) =
    Kernel.register_kcall kernel ~name:"nfs.lookup" (fun ctx ->
        let fileid = Kcall.arg ctx.Kcall.cpu 0 in
        let blocks =
          match Hashtbl.find_opt t.files fileid with
          | Some file -> File.blocks file
          | None -> -1
        in
        Kcall.return ctx.Kcall.cpu blocks;
        Kcall.ok)
  in
  let (_ : Kcall.fn) =
    Kernel.register_kcall kernel ~name:"nfs.read" (fun ctx ->
        let fileid = Kcall.arg ctx.Kcall.cpu 0 in
        let block = Kcall.arg ctx.Kcall.cpu 1 in
        match Hashtbl.find_opt t.files fileid with
        | None ->
            Kcall.return ctx.Kcall.cpu s_noent;
            Kcall.ok
        | Some file ->
            if block < 0 || block >= File.blocks file then begin
              Kcall.return ctx.Kcall.cpu s_badblock;
              Kcall.ok
            end
            else begin
              (* a real read through the cache, possibly blocking on the
                 simulated disk *)
              match File.read file ~cred:ctx.Kcall.cred ~block with
              | `Hit ->
                  Kcall.return ctx.Kcall.cpu s_ok_hit;
                  Kcall.ok
              | `Miss ->
                  Kcall.return ctx.Kcall.cpu s_ok_miss;
                  Kcall.ok
            end)
  in
  let (_ : Kcall.fn) =
    Kernel.register_kcall kernel ~name:"nfs.reply" (fun ctx ->
        let status = Kcall.arg ctx.Kcall.cpu 0 in
        let decoded =
          if status = s_ok_hit then Ok_read { cache_hit = true }
          else if status = s_ok_miss then Ok_read { cache_hit = false }
          else if status = s_badblock then Bad_block
          else No_such_file
        in
        let log () = t.resp <- decoded :: t.resp in
        (* an aborted handler's reply never reaches the client *)
        (match ctx.Kcall.txn with
        | Some txn -> Txn.defer txn log
        | None -> log ());
        Kcall.ok)
  in
  Kernel.on_snapshot kernel (fun () ->
      let files = Hashtbl.copy t.files and resp = t.resp in
      fun () ->
        Hashtbl.reset t.files;
        Hashtbl.iter (Hashtbl.replace t.files) files;
        t.resp <- resp);
  t

let port t = t.port
let export t ~fileid file = Hashtbl.replace t.files fileid file

let server_source : Asm.item list =
  [
    (* r1 = payload address, r2 = length; payload = [op; fileid; block] *)
    Ld (Asm.r5, Asm.r1, 0);
    Ld (Asm.r6, Asm.r1, 1);
    Ld (Asm.r7, Asm.r1, 2);
    Li (Asm.r8, op_read);
    Br (Vino_vm.Insn.Ne, Asm.r5, Asm.r8, "bad_request");
    (* does the file exist? *)
    Mov (Asm.r1, Asm.r6);
    Kcall "nfs.lookup";
    Li (Asm.r8, 0);
    Br (Vino_vm.Insn.Lt, Asm.r0, Asm.r8, "noent");
    (* read through the cache/disk, then echo the status *)
    Mov (Asm.r1, Asm.r6);
    Mov (Asm.r2, Asm.r7);
    Kcall "nfs.read";
    Mov (Asm.r1, Asm.r0);
    Kcall "nfs.reply";
    Li (Asm.r0, 0);
    Ret;
    Label "noent";
    Li (Asm.r1, s_noent);
    Kcall "nfs.reply";
    Li (Asm.r0, 0);
    Ret;
    Label "bad_request";
    Li (Asm.r1, s_badblock);
    Kcall "nfs.reply";
    Li (Asm.r0, 0);
    Ret;
  ]

let install t ~cred =
  match Kernel.seal t.kernel (Asm.assemble_exn server_source) with
  | Error e -> Error e
  | Ok image ->
      Event_point.add_handler (Port.event_point t.port) t.kernel ~cred image

let read_request t ~fileid ~block =
  Port.datagram t.port ~payload:[| op_read; fileid; block |]

let responses t = List.rev t.resp
