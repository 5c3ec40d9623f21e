module Insn = Vino_vm.Insn
module Image = Vino_misfit.Image

type loaded = {
  code : Insn.t array;
  seg : Vino_vm.Mem.segment;
  trans : Vino_vm.Jit.t;
  flow : Vino_verify.Kflow.table;
  mutable running : int;
  mutable retired : bool;
}

let resolve_reloc kernel (r : Vino_vm.Asm.reloc) =
  match Kcall.find_by_name kernel.Kernel.registry r.name with
  | None -> Error (Printf.sprintf "unresolved kernel function %S" r.name)
  | Some fn when not fn.Kcall.callable ->
      Error (Printf.sprintf "function %S is not graft-callable" r.name)
  | Some fn -> Ok fn.Kcall.id

let patched kernel code relocs =
  let code = Array.copy code in
  let rec patch = function
    | [] -> Ok code
    | (r : Vino_vm.Asm.reloc) :: rest -> (
        match resolve_reloc kernel r with
        | Error _ as e -> e
        | Ok _ when r.index < 0 || r.index >= Array.length code ->
            Error
              (Printf.sprintf "relocation of %S at index %d is outside the code"
                 r.name r.index)
        | Ok id ->
            code.(r.index) <- Insn.Kcall id;
            patch rest)
  in
  patch relocs

let check_direct_ids kernel code =
  let bad = ref None in
  Array.iter
    (fun i ->
      match i with
      | Insn.Kcall id when id >= 0 && !bad = None -> (
          match Kcall.find kernel.Kernel.registry id with
          | Some fn when fn.Kcall.callable -> ()
          | Some fn ->
              bad :=
                Some
                  (Printf.sprintf "function %S (id %d) is not graft-callable"
                     fn.Kcall.name id)
          | None -> bad := Some (Printf.sprintf "unknown function id %d" id))
      | _ -> ())
    code;
  match !bad with None -> Ok () | Some e -> Error e

(* Link-time static check, under the installer's entry facts: the
   graft point's own marshalling, never the sealer's claims. It refuses
   what every run would hit (provably out-of-bounds accesses, indirect
   calls through a provably bad id, malformed code, fall-through off the
   end) and reports which accesses it proves in-segment. *)
let analysis_config kernel ~words ~entry =
  Vino_verify.Verify.config ~entry ~words:(max 1 words)
    ~callable:(Kcall.callable kernel.Kernel.registry)
    ~stage:`Rewritten ()

let check_config kernel ~words = analysis_config kernel ~words ~entry:[]

(* The analysis's verdict and, for code that passes, its kcall-flow table
   and confinement findings. Kcall ids are resolved, so the flow analysis
   sees concrete registry ids; the row space is the registry's id range
   now. *)
let verdict kernel ~words ~entry code =
  let report =
    Vino_verify.Verify.analyse (analysis_config kernel ~words ~entry) code
  in
  if Vino_verify.Report.ok report then
    Ok
      {
        Kernel.flow =
          Vino_verify.Kflow.of_program
            ~nfuncs:(Kcall.id_limit kernel.Kernel.registry)
            code;
        bare = Vino_verify.Report.bare_accesses report code;
        unproven = Vino_verify.Report.unproven_access report;
      }
  else
    Error
      ("static verification failed: "
      ^ Vino_verify.Report.error_summary report)

let load ?(entry = []) ?(privileged = false) kernel ~words (image : Image.t) =
  if not (Image.verify ~key:kernel.Kernel.key image) then
    Error "signature verification failed: code was not processed by MiSFIT"
  else
    Result.bind (patched kernel image.code image.relocs) @@ fun code ->
    Result.bind (check_direct_ids kernel code) @@ fun () ->
    let sign = Kernel.code_digest kernel code in
    Result.bind
      (Kernel.link_verdict kernel ~sign ~words ~entry code (fun () ->
           verdict kernel ~words ~entry code))
    @@ fun { Kernel.flow; bare; unproven } ->
    match unproven with
    | Some pc when not privileged ->
        Error
          (Printf.sprintf
             "access at pc %d is not proven in-segment; only a privileged \
              installer may load unconfined code"
             pc)
    | Some _ | None -> (
        match Segalloc.alloc kernel.Kernel.segalloc words with
        | Error `No_memory -> Error "out of graft memory"
        | Ok seg ->
            Ok
              {
                code;
                seg;
                trans = Kernel.translate kernel ?safe:bare ~sign code;
                flow;
                running = 0;
                retired = false;
              })

let flow_of_obj kernel (obj : Vino_vm.Asm.obj) =
  Result.bind (patched kernel obj.code obj.relocs) @@ fun code ->
  Ok
    (Vino_verify.Kflow.of_program
       ~nfuncs:(Kcall.id_limit kernel.Kernel.registry)
       code)

(* Zero before freeing: a buddy block keeps its contents, and the next
   graft given it must not read this one's data (Rule 3). *)
let free kernel l =
  let { Vino_vm.Mem.base; size } = l.seg in
  Vino_vm.Mem.fill kernel.Kernel.mem base size 0;
  Segalloc.free kernel.Kernel.segalloc l.seg

let pin l = l.running <- l.running + 1

let unpin kernel l =
  l.running <- l.running - 1;
  if l.running = 0 && l.retired then begin
    l.retired <- false;
    free kernel l
  end

let unload kernel l =
  if l.running > 0 then l.retired <- true else free kernel l
