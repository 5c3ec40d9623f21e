module Insn = Vino_vm.Insn
module Asm = Vino_vm.Asm
module Encode = Vino_vm.Encode

module Proof = Vino_verify.Proof

type t = {
  code : Insn.t array;
  relocs : Asm.reloc list;
  proof : Proof.t option;
  signature : Sign.t;
}

(* Canonical word stream covered by the signature: code, reloc table, then
   the serialised proof (if any) — so a tampered certificate is caught
   exactly like tampered code. *)
let proof_words = function
  | None -> [||]
  | Some p -> Proof.serialise p

let signed_words code relocs proof =
  let code_words = Encode.to_words code in
  let reloc_words =
    List.concat_map
      (fun { Asm.index; name } ->
        index :: String.length name
        :: List.init (String.length name) (fun k -> Char.code name.[k]))
      relocs
  in
  Array.concat
    [ code_words; Array.of_list reloc_words; proof_words proof ]

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

let make ~key ?proof code relocs =
  {
    code;
    relocs;
    proof;
    signature = Sign.digest ~key (signed_words code relocs proof);
  }

let seal ?verifier ~key (obj : Asm.obj) =
  Result.bind (Rewrite.process_proved ?verifier obj.code)
  @@ fun (code, proof) ->
  Result.map (make ~key ?proof code) (relocate_on code obj.relocs)

let seal_unsafe ~key (obj : Asm.obj) = make ~key obj.code obj.relocs

let verify ~key t =
  Sign.equal t.signature
    (Sign.digest ~key (signed_words t.code t.relocs t.proof))

let tamper t =
  let code = Array.copy t.code in
  if Array.length code > 0 then code.(0) <- Insn.Li (0, 0xdead);
  { t with code }

(* Inflate the proof's safe-access map without re-signing: models an
   attacker upgrading a certificate to elide checks the verifier never
   proved. [verify] must catch it. *)
let tamper_proof t =
  match t.proof with
  | None -> t
  | Some p ->
      let safe = Array.map (fun _ -> true) (Proof.safe p) in
      {
        t with
        proof = Some (Proof.make ~words:(Proof.words p) ~safe
                        ~calls:(Proof.calls p));
      }

let serialise t =
  let body = signed_words t.code t.relocs None in
  let code_words = Array.length (Encode.to_words t.code) in
  let pwords = proof_words t.proof in
  Array.concat
    [
      [| code_words; Array.length body |];
      body;
      [| Array.length pwords |];
      pwords;
      [| (t.signature :> int) |];
    ]

let deserialise words =
  let n = Array.length words in
  if n < 4 then Error "image too short"
  else
    let code_words = words.(0) in
    let body_len = words.(1) in
    if
      code_words < 0 || body_len < code_words || 2 + body_len + 2 > n
      || words.(2 + body_len) < 0
      || 2 + body_len + 1 + words.(2 + body_len) + 1 <> n
    then Error "malformed image header"
    else
      let proof_len = words.(2 + body_len) in
      let code_stream = Array.sub words 2 code_words in
      Result.bind (Encode.of_words code_stream) @@ fun code ->
      (Result.bind
         (if proof_len = 0 then Ok None
          else
            Result.map Option.some
              (Proof.deserialise
                 (Array.sub words (2 + body_len + 1) proof_len)))
      @@ fun proof ->
      let rec read_relocs acc pos =
        if pos = 2 + body_len then Ok (List.rev acc)
        else if pos + 2 > 2 + body_len then Error "truncated relocation table"
        else
          let index = words.(pos) in
          let len = words.(pos + 1) in
          if len < 0 || pos + 2 + len > 2 + body_len then
            Error "truncated relocation name"
          else
            let name =
              String.init len (fun k -> Char.chr (words.(pos + 2 + k) land 0xff))
            in
            read_relocs ({ Asm.index; name } :: acc) (pos + 2 + len)
      in
      Result.map
        (fun relocs ->
          { code; relocs; proof; signature = Sign.forge words.(n - 1) })
        (read_relocs [] (2 + code_words)))

let magic = "VINOIMG2"

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
