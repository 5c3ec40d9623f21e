module Insn = Vino_vm.Insn
module Image = Vino_misfit.Image

type loaded = {
  code : Insn.t array;
  seg : Vino_vm.Mem.segment;
  trans : Vino_vm.Jit.t;
  flow : Vino_verify.Kflow.table;
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
    | r :: rest -> (
        match resolve_reloc kernel r with
        | Error _ as e -> e
        | Ok id ->
            code.(r.Vino_vm.Asm.index) <- Insn.Kcall id;
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

(* Link-time static check. Runs with no entry facts (the linker cannot know
   the graft point's register conventions — the signature attests to any
   seal-time proof), so it can only flag hard errors every execution would
   hit: provably out-of-bounds accesses, indirect calls through a provably
   bad id, malformed code, fall-through off the end. *)
let check_config kernel ~words =
  Vino_verify.Verify.config ~words:(max 1 words)
    ~callable:(fun id ->
      match Kcall.find kernel.Kernel.registry id with
      | Some fn -> fn.Kcall.callable
      | None -> false)
    ~stage:`Rewritten ()

(* The static check's verdict and, for code that passes, its kcall-flow
   table. Kcall ids are resolved, so the flow analysis sees concrete
   registry ids; the row space is the registry's id range now. *)
let verdict kernel ~words code =
  let report = Vino_verify.Verify.analyse (check_config kernel ~words) code in
  if Vino_verify.Report.ok report then
    Ok
      (Vino_verify.Kflow.of_program
         ~nfuncs:(Kcall.id_limit kernel.Kernel.registry)
         code)
  else
    Error
      ("static verification failed: "
      ^ Vino_verify.Report.error_summary report)

(* Load-time revalidation of a seal-time safety proof. The signature
   already proves the proof is the one the toolchain derived for this
   code; what it cannot prove is that the *assumptions* the verifier
   discharged obligations against still hold in this kernel, now:

   - every [Checkcall] the rewriter elided was justified by a constant id
     the seal-time callable predicate accepted — if an operator has since
     pulled that function off the graft-callable list, running the image
     would place an unchecked indirect call;
   - every [Sandbox] elision assumed the segment holds at least the
     verifier config's [words] — loading into a smaller segment would
     let a "proven" access land outside it.

   Either staleness refuses the load (and leaves an audit trail): the
   image must be re-sealed under the current configuration. *)
let check_proof kernel ~words (image : Image.t) =
  match image.Image.proof with
  | None -> Ok ()
  | Some p ->
      let stale =
        if words < Vino_verify.Proof.words p then
          Some
            (Printf.sprintf
               "segment of %d words is smaller than the %d the proof assumes"
               words (Vino_verify.Proof.words p))
        else
          List.find_opt
            (fun id ->
              match Kcall.find kernel.Kernel.registry id with
              | Some fn -> not fn.Kcall.callable
              | None -> true)
            (Vino_verify.Proof.calls p)
          |> Option.map
               (Printf.sprintf
                  "proof assumes function id %d is graft-callable; it no \
                   longer is")
      in
      (match stale with
      | None -> Ok ()
      | Some reason ->
          Kernel.audit_event kernel
            (Audit.Proof_stale
               { point = "image " ^ Kernel.digest_hex image.Image.signature;
                 reason });
          Error ("stale safety proof: " ^ reason))

let load kernel ~words (image : Image.t) =
  if not (Image.verify ~key:kernel.Kernel.key image) then
    Error "signature verification failed: code was not processed by MiSFIT"
  else
    Result.bind (patched kernel image.code image.relocs) @@ fun code ->
    Result.bind (check_direct_ids kernel code) @@ fun () ->
    let sign = Kernel.code_digest kernel code in
    Result.bind
      (Kernel.link_verdict kernel ~sign ~words code (fun () ->
           verdict kernel ~words code))
    @@ fun flow ->
    Result.bind (check_proof kernel ~words image) @@ fun () ->
    match Segalloc.alloc kernel.Kernel.segalloc words with
    | Error `No_memory -> Error "out of graft memory"
    | Ok seg ->
        Ok
          {
            code;
            seg;
            trans = Kernel.translate kernel ?proof:image.proof ~sign code;
            flow;
          }

let flow_of_obj kernel (obj : Vino_vm.Asm.obj) =
  Result.bind (patched kernel obj.code obj.relocs) @@ fun code ->
  Ok
    (Vino_verify.Kflow.of_program
       ~nfuncs:(Kcall.id_limit kernel.Kernel.registry)
       code)

let unload kernel loaded = Segalloc.free kernel.Kernel.segalloc loaded.seg
