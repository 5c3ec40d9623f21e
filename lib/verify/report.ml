type access_class = Access_safe | Access_sandbox | Access_oob
type call_class = Call_safe of int | Call_check | Call_bad of int
type insn_class = Plain | Access of access_class | Icall of call_class | Unreachable

type severity = Error | Warning
type diag = { index : int option; severity : severity; message : string }

type t = { classes : insn_class array; diags : diag list; degraded : bool }

let error ?index message = { index; severity = Error; message }
let warning ?index message = { index; severity = Warning; message }

let errors t = List.filter (fun d -> d.severity = Error) t.diags
let warnings t = List.filter (fun d -> d.severity = Warning) t.diags
let ok t = errors t = []

let count p t = Array.fold_left (fun acc c -> if p c then acc + 1 else acc) 0 t.classes

let safe_accesses = count (function Access Access_safe -> true | _ -> false)
let total_accesses = count (function Access _ -> true | _ -> false)
let safe_calls = count (function Icall (Call_safe _) -> true | _ -> false)
let total_icalls = count (function Icall _ -> true | _ -> false)

let unproven_access t =
  let n = Array.length t.classes in
  let rec from k =
    if k = n then None
    else
      match t.classes.(k) with
      | Access (Access_sandbox | Access_oob) -> Some k
      | Access Access_safe | Plain | Icall _ | Unreachable -> from (k + 1)
  in
  from 0

(* MiSFIT's own accesses address through the sandbox register a [Sandbox]
   just confined; they are proven too, but the translator fuses them with
   that [Sandbox], so only the others count as bare. *)
let bare_accesses t prog =
  let bare =
    Array.mapi
      (fun k (i : Vino_vm.Insn.t) ->
        match (i, t.classes.(k)) with
        | (Ld (_, rb, _) | St (_, rb, _)), Access Access_safe ->
            rb <> Vino_vm.Insn.scratch
        | _ -> false)
      prog
  in
  if Array.exists Fun.id bare then Some bare else None

let diag_to_string d =
  Printf.sprintf "%s%s: %s"
    (match d.severity with Error -> "error" | Warning -> "warning")
    (match d.index with Some k -> Printf.sprintf " at %d" k | None -> "")
    d.message

let error_summary t =
  match errors t with
  | [] -> "no errors"
  | es -> String.concat "; " (List.map diag_to_string es)

let verdict = function
  | Plain -> ""
  | Access Access_safe -> "safe: provably in-segment"
  | Access Access_sandbox -> "needs sandbox"
  | Access Access_oob -> "REJECT: provably out of bounds"
  | Icall (Call_safe id) -> Printf.sprintf "safe: provably calls id %d" id
  | Icall Call_check -> "needs checkcall"
  | Icall (Call_bad id) -> Printf.sprintf "REJECT: id %d not graft-callable" id
  | Unreachable -> "unreachable"

let pp_summary ppf t =
  Format.fprintf ppf
    "accesses: %d/%d provably safe; indirect calls: %d/%d provably safe%s@."
    (safe_accesses t) (total_accesses t) (safe_calls t) (total_icalls t)
    (if t.degraded then " (degraded: computed intra-graft control flow)"
     else "")

let pp_diags ppf t =
  List.iter (fun d -> Format.fprintf ppf "%s@." (diag_to_string d)) t.diags

let pp ppf t =
  pp_summary ppf t;
  pp_diags ppf t

let pp_annotated ppf prog t =
  Array.iteri
    (fun k i ->
      let v = verdict t.classes.(k) in
      Format.fprintf ppf "%4d: %-32s%s@." k
        (Format.asprintf "%a" Vino_vm.Insn.pp i)
        (if v = "" then "" else "; " ^ v))
    prog;
  Format.pp_print_newline ppf ();
  pp ppf t
