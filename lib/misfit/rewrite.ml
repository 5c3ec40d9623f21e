module Insn = Vino_vm.Insn

let uses_reserved_register prog = Array.exists Insn.uses_scratch prog

(* Expand each instruction into a list, then remap every control-flow target
   from its old index to the start of that instruction's expansion. *)
let expand_i f prog =
  let expansions = Array.mapi f prog in
  let n = Array.length prog in
  let new_index = Array.make (n + 1) 0 in
  for k = 0 to n - 1 do
    new_index.(k + 1) <- new_index.(k) + List.length expansions.(k)
  done;
  let remap t = new_index.(t) in
  let out = Array.make new_index.(n) Insn.Halt in
  Array.iteri
    (fun k exp ->
      List.iteri
        (fun j i -> out.(new_index.(k) + j) <- Insn.map_targets remap i)
        exp)
    expansions;
  out

let expand f prog = expand_i (fun _ i -> f i) prog

let lower_stack_ops prog =
  let lower : Insn.t -> Insn.t list = function
    | Push r -> [ Alui (Sub, Insn.sp, Insn.sp, 1); St (r, Insn.sp, 0) ]
    | Pop r -> [ Ld (r, Insn.sp, 0); Alui (Add, Insn.sp, Insn.sp, 1) ]
    | i -> [ i ]
  in
  expand lower prog

(* The single SFI insertion pass. [safe_access]/[safe_call] are judged at
   input-program indices (before expansion): a safe access keeps its raw
   [Ld]/[St], a safe indirect call keeps its raw [Kcallr]. [guard_calls]
   folds the [Checkcall] insertion into this pass so both protections see
   the same index space. *)
let sandbox_pass ~safe_access ~safe_call ~guard_calls prog =
  let s = Insn.scratch in
  let sandboxed rb off access : Insn.t list =
    let address =
      if off = 0 then Insn.Mov (s, rb) else Insn.Alui (Add, s, rb, off)
    in
    [ address; Sandbox s; access ]
  in
  let protect index (i : Insn.t) : Insn.t list =
    match i with
    | (Ld _ | St _) when safe_access index -> [ i ]
    | Ld (rd, rb, off) -> sandboxed rb off (Insn.Ld (rd, s, 0))
    | St (rv, rb, off) -> sandboxed rb off (Insn.St (rv, s, 0))
    | Kcallr r when guard_calls && not (safe_call index) ->
        [ Insn.Checkcall r; Kcallr r ]
    | i -> [ i ]
  in
  expand_i protect prog

let never _ = false

let sandbox_memory ?(safe = never) prog =
  sandbox_pass ~safe_access:safe ~safe_call:never ~guard_calls:false prog

let guard_indirect_calls ?(safe = never) prog =
  let guard k : Insn.t -> Insn.t list = function
    | Kcallr r when not (safe k) -> [ Checkcall r; Kcallr r ]
    | i -> [ i ]
  in
  expand_i guard prog

let process ?verifier prog =
  if uses_reserved_register prog then
    Error
      (Printf.sprintf "graft code uses reserved sandbox register r%d"
         Insn.scratch)
  else
    let lowered = lower_stack_ops prog in
    match verifier with
    | None ->
        Ok
          (sandbox_pass ~safe_access:never ~safe_call:never ~guard_calls:true
             lowered)
    | Some conf ->
        (* The analysis runs on the lowered program so the report's indices
           line up with the insertion pass's input. *)
        let report = Vino_verify.Verify.analyse conf lowered in
        if not (Vino_verify.Report.ok report) then
          Error (Vino_verify.Report.error_summary report)
        else
          let classes = report.Vino_verify.Report.classes in
          let safe_access k =
            classes.(k) = Vino_verify.Report.(Access Access_safe)
          in
          let safe_call k =
            match classes.(k) with
            | Vino_verify.Report.(Icall (Call_safe _)) -> true
            | _ -> false
          in
          Ok (sandbox_pass ~safe_access ~safe_call ~guard_calls:true lowered)
