module Insn = Vino_vm.Insn
module Asm = Vino_vm.Asm
module Encode = Vino_vm.Encode

type t = { code : Insn.t array; relocs : Asm.reloc list; signature : Sign.t }

(* The serialised form is [| code words; code + relocation words; code...;
   relocations...; signature |], and the signature covers every word
   before it: the two section lengths first, so no edit can move a
   section boundary, then the code cells and the relocation table.
   [fold_signed] walks those words without building them; [serialise]
   writes the same words. *)
let fold_relocs f acc relocs =
  List.fold_left
    (fun acc { Asm.index; name } ->
      String.fold_left
        (fun acc c -> f acc (Char.code c))
        (f (f acc index) (String.length name))
        name)
    acc relocs

let reloc_words relocs =
  List.fold_left (fun n r -> n + 2 + String.length r.Asm.name) 0 relocs

let fold_signed f acc code relocs =
  let code_words = Array.length code * Encode.words_per_insn in
  let acc = f (f acc code_words) (code_words + reloc_words relocs) in
  fold_relocs f (Encode.fold f acc code) relocs

let signature ~key code relocs =
  Sign.fold ~key (fun step h -> fold_signed step h code relocs)

(* After rewriting, the placeholder [Kcall (-1)] instructions appear in the
   same order as in the source; re-derive their indices. *)
let relocate_on rewritten (relocs : Asm.reloc list) =
  let placeholders = ref [] in
  Array.iteri
    (fun k i ->
      match i with
      | Insn.Kcall (-1) -> placeholders := k :: !placeholders
      | _ -> ())
    rewritten;
  let placeholders = List.rev !placeholders in
  if List.length placeholders <> List.length relocs then
    Error "relocation count mismatch after rewriting"
  else
    Ok
      (List.map2
         (fun index { Asm.name; _ } -> { Asm.index; name })
         placeholders relocs)

let make ~key code relocs =
  { code; relocs; signature = signature ~key code relocs }

let seal ?verifier ~key (obj : Asm.obj) =
  Result.bind (Rewrite.process ?verifier obj.code) @@ fun code ->
  Result.map (make ~key code) (relocate_on code obj.relocs)

let seal_unsafe ~key (obj : Asm.obj) = make ~key obj.code obj.relocs

let verify ~key t = Sign.equal t.signature (signature ~key t.code t.relocs)

let tamper t =
  let code = Array.copy t.code in
  if Array.length code > 0 then code.(0) <- Insn.Li (0, 0xdead);
  { t with code }

let serialise t =
  let code_words = Array.length t.code * Encode.words_per_insn in
  let out = Array.make (code_words + reloc_words t.relocs + 3) 0 in
  let put k w =
    out.(k) <- w;
    k + 1
  in
  let k = fold_signed put 0 t.code t.relocs in
  out.(k) <- (t.signature :> int);
  out

(* Parse the word stream, then insist it is the one [serialise] writes
   back: an operand word a cell does not use, a relocation-name word
   outside 0..255 or any other word the parse would drop or normalise
   must not survive, or an edit to it would pass the signature check. *)
let deserialise words =
  let n = Array.length words in
  if n < 3 then Error "image too short"
  else
    let code_words = words.(0) in
    let body_len = words.(1) in
    if code_words < 0 || body_len < code_words || 2 + body_len + 1 <> n then
      Error "malformed image header"
    else
      Result.bind (Encode.of_words (Array.sub words 2 code_words))
      @@ fun code ->
      let rec read_relocs acc pos =
        if pos = 2 + body_len then Ok (List.rev acc)
        else if pos + 2 > 2 + body_len then Error "truncated relocation table"
        else
          let index = words.(pos) in
          let len = words.(pos + 1) in
          if len < 0 || pos + 2 + len > 2 + body_len then
            Error "truncated relocation name"
          else if index < 0 || index >= Array.length code then
            Error "relocation index outside the code"
          else
            let name =
              String.init len (fun k -> Char.chr (words.(pos + 2 + k) land 0xff))
            in
            read_relocs ({ Asm.index; name } :: acc) (pos + 2 + len)
      in
      Result.bind (read_relocs [] (2 + code_words)) @@ fun relocs ->
      let t = { code; relocs; signature = Sign.forge words.(n - 1) } in
      if serialise t = words then Ok t else Error "non-canonical image stream"

let magic = "VINOIMG4"

let save t ~path =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (magic ^ "\n");
      Array.iter
        (fun w -> Out_channel.output_string oc (string_of_int w ^ "\n"))
        (serialise t))

let load ~path =
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error e -> Error e
  | lines -> (
      let lines = List.filter (fun l -> String.trim l <> "") lines in
      match lines with
      | first :: rest when String.trim first = magic ->
          let rec words acc = function
            | [] -> Ok (Array.of_list (List.rev acc))
            | l :: ls -> (
                match int_of_string_opt (String.trim l) with
                | Some w -> words (w :: acc) ls
                | None -> Error (Printf.sprintf "corrupt image word %S" l))
          in
          Result.bind (words [] rest) deserialise
      | _ :: _ | [] -> Error "not a vino graft image")
