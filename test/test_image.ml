(* Tests for graft images: sealing, signing, tampering, serialisation. *)

module Asm = Vino_vm.Asm
module Insn = Vino_vm.Insn
module Image = Vino_misfit.Image
module Sign = Vino_misfit.Sign

let key = "vino-toolchain-key"

let sample_obj () =
  Asm.assemble_exn
    [
      Li (Asm.r1, 10);
      Kcall "mem.alloc";
      St (Asm.r0, Asm.r1, 0);
      Kcall "mem.free";
      Halt;
    ]

let seal_exn obj =
  match Image.seal ~key obj with
  | Ok image -> image
  | Error e -> Alcotest.fail e

let test_seal_verifies () =
  let image = seal_exn (sample_obj ()) in
  Alcotest.(check bool) "verifies with right key" true
    (Image.verify ~key image);
  Alcotest.(check bool) "fails with wrong key" false
    (Image.verify ~key:"evil" image)

let test_sealed_code_is_rewritten () =
  let image = seal_exn (sample_obj ()) in
  let has_sandbox =
    Array.exists
      (function Insn.Sandbox _ -> true | _ -> false)
      image.Image.code
  in
  Alcotest.(check bool) "sandbox instructions present" true has_sandbox

let test_relocations_track_rewritten_indices () =
  let image = seal_exn (sample_obj ()) in
  Alcotest.(check int) "two relocs" 2 (List.length image.Image.relocs);
  List.iter
    (fun { Asm.index; name = _ } ->
      match image.Image.code.(index) with
      | Insn.Kcall -1 -> ()
      | i ->
          Alcotest.failf "reloc %d points at %a, not a placeholder" index
            Insn.pp i)
    image.Image.relocs

let test_tampering_detected () =
  let image = seal_exn (sample_obj ()) in
  let tampered = Image.tamper image in
  Alcotest.(check bool) "tampered image fails verification" false
    (Image.verify ~key tampered)

let test_unsafe_seal_skips_sfi () =
  let image = Image.seal_unsafe ~key (sample_obj ()) in
  let has_sandbox =
    Array.exists
      (function Insn.Sandbox _ -> true | _ -> false)
      image.Image.code
  in
  Alcotest.(check bool) "no sandbox instructions" false has_sandbox;
  Alcotest.(check bool) "still signed" true (Image.verify ~key image)

let test_serialise_roundtrip () =
  let image = seal_exn (sample_obj ()) in
  match Image.deserialise (Image.serialise image) with
  | Error e -> Alcotest.fail e
  | Ok back ->
      Alcotest.(check bool) "code equal" true
        (back.Image.code = image.Image.code);
      Alcotest.(check bool) "relocs equal" true
        (back.Image.relocs = image.Image.relocs);
      Alcotest.(check bool) "still verifies" true (Image.verify ~key back)

let test_deserialise_garbage () =
  (match Image.deserialise [| 1; 2 |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short image accepted");
  match Image.deserialise [| 4; 4; 999; 0; 0; 0; 42 |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad opcode accepted"

let test_save_load_roundtrip () =
  let image = seal_exn (sample_obj ()) in
  let path = Filename.temp_file "vino" ".gimg" in
  Image.save image ~path;
  (match Image.load ~path with
  | Error e -> Alcotest.fail e
  | Ok back ->
      Alcotest.(check bool) "code equal" true
        (back.Image.code = image.Image.code);
      Alcotest.(check bool) "verifies after disk round trip" true
        (Image.verify ~key back));
  (* corrupt a word on disk: load must reject or verification must fail *)
  let lines =
    In_channel.with_open_text path In_channel.input_lines
  in
  let corrupted =
    List.mapi (fun k l -> if k = 3 then "424242" else l) lines
  in
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) corrupted);
  (match Image.load ~path with
  | Error _ -> ()
  | Ok tampered ->
      Alcotest.(check bool) "tampering caught by verification" false
        (Image.verify ~key tampered));
  Sys.remove path;
  (* garbage files are rejected cleanly *)
  let garbage = Filename.temp_file "vino" ".gimg" in
  Out_channel.with_open_text garbage (fun oc ->
      Out_channel.output_string oc "not an image\n");
  (match Image.load ~path:garbage with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  Sys.remove garbage;
  match Image.load ~path:"/nonexistent/x.gimg" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file accepted"

(* Every word [serialise] writes is either covered by the signature or
   checked by [deserialise] against the stream it would write back: an
   unused operand word, the high bits of a relocation-name word or a
   moved section boundary must not load as a verifying image. *)
let test_non_canonical_stream_refused () =
  let image = seal_exn (sample_obj ()) in
  let w = Image.serialise image in
  let refused what e =
    match Image.deserialise e with
    | Error _ -> ()
    | Ok edited ->
        Alcotest.(check bool) (what ^ " does not verify") false
          (Image.verify ~key edited)
  in
  Array.iteri
    (fun k _ ->
      let e = Array.copy w in
      e.(k) <- e.(k) + 1;
      refused (Printf.sprintf "word %d + 1" k) e;
      let e = Array.copy w in
      e.(k) <- e.(k) lxor 0x100;
      refused (Printf.sprintf "word %d xor 0x100" k) e)
    w;
  (* the section boundary moved by one cell, the header re-derived as
     the edit would need it *)
  let e = Array.copy w in
  e.(0) <- e.(0) + Vino_vm.Encode.words_per_insn;
  refused "code section grown into the relocations" e

let test_signature_sensitivity () =
  (* Any single-word change to the stream must change the digest. *)
  let words = [| 1; 2; 3; 4; 5 |] in
  let base = Sign.digest ~key words in
  Array.iteri
    (fun k _ ->
      let mutated = Array.copy words in
      mutated.(k) <- mutated.(k) + 1;
      Alcotest.(check bool)
        (Printf.sprintf "word %d change detected" k)
        false
        (Sign.equal base (Sign.digest ~key mutated)))
    words

(* Property: one flipped bit of one word, or one changed byte of the key,
   changes the digest. Each step is an xor-multiply by an odd prime, a
   bijection of the state, and a word's two steps take its two halves, so
   this holds for every input, not just with high probability. *)
let prop_digest_bit_and_key_sensitive =
  QCheck2.Test.make ~name:"digest changes with any bit or the key"
    ~count:300
    ~print:QCheck2.Print.(
      quad (array int) string (pair int int) (pair int int))
    QCheck2.Gen.(
      quad
        (array_size (int_range 1 64) int)
        (string_size ~gen:printable (int_range 1 12))
        (pair nat (int_range 0 (Sys.int_size - 1)))
        (pair nat (int_range 1 255)))
    (fun (words, key, (at, bit), (kat, kdelta)) ->
      let base = Sign.digest ~key words in
      let flipped = Array.copy words in
      let at = at mod Array.length words in
      flipped.(at) <- flipped.(at) lxor (1 lsl bit);
      let kat = kat mod String.length key in
      let other =
        String.mapi
          (fun i c ->
            if i = kat then Char.chr ((Char.code c + kdelta) land 0xff) else c)
          key
      in
      (not (Sign.equal base (Sign.digest ~key flipped)))
      && not (Sign.equal base (Sign.digest ~key:other words)))

(* Flipping bit 62 is adding [2^62] mod [2^63], and every odd multiply
   keeps that difference as it is: a step that fed a whole word into the
   state would carry one such flip to the end unchanged, whatever the
   key, so two flips would cancel and one flip would show only as bit 62
   of the digest. Both edits must change the digest. *)
let prop_digest_top_bit_flips =
  QCheck2.Test.make ~name:"bit-62 flips are not invisible" ~count:300
    ~print:QCheck2.Print.(triple (array int) string (pair int int))
    QCheck2.Gen.(
      triple
        (array_size (int_range 2 64) int)
        (string_size ~gen:printable (int_range 0 12))
        (pair nat nat))
    (fun (words, key, (i, j)) ->
      let n = Array.length words in
      let i = i mod n in
      let j = (i + 1 + (j mod (n - 1))) mod n in
      let base = Sign.digest ~key words in
      let one = Array.copy words in
      one.(i) <- one.(i) lxor min_int;
      let two = Array.copy one in
      two.(j) <- two.(j) lxor min_int;
      (not (Sign.equal base (Sign.digest ~key two)))
      && not
           (Sign.equal
              (Sign.forge ((base :> int) lxor min_int))
              (Sign.digest ~key one)))

(* The same edit on a saved image, made without the key: bit 62 of an
   [Li] immediate, and of an access offset, flipped together with bit 62
   of the stored signature. The image must fail its check. *)
let test_top_bit_edit_rejected () =
  let image = seal_exn (sample_obj ()) in
  let w = Image.serialise image in
  let n = Array.length w in
  let edits = ref 0 in
  Array.iteri
    (fun k (i : Insn.t) ->
      let operand =
        match i with
        | Li _ -> Some 2
        | Ld _ | St _ -> Some 3
        | _ -> None
      in
      Option.iter
        (fun o ->
          let e = Array.copy w in
          e.(2 + (4 * k) + o) <- e.(2 + (4 * k) + o) lxor min_int;
          e.(n - 1) <- e.(n - 1) lxor min_int;
          incr edits;
          match Image.deserialise e with
          | Error _ -> ()
          | Ok edited ->
              Alcotest.(check bool)
                (Printf.sprintf "bit-62 edit of instruction %d rejected" k)
                false
                (Image.verify ~key edited))
        operand)
    image.Image.code;
  Alcotest.(check bool) "an immediate and an offset were edited" true
    (!edits >= 2)

(* The signature is folded over the header, code and relocations as the
   sealer walks them, without building the stream; it must equal the
   digest of the stream [serialise] writes before the signature, or a
   saved image would fail verification once loaded. *)
let test_streamed_signature_matches_serialised () =
  let image = seal_exn (sample_obj ()) in
  let w = Image.serialise image in
  Alcotest.(check bool) "signature is the serialised stream's digest" true
    (Sign.equal image.Image.signature
       (Sign.digest ~key (Array.sub w 0 (Array.length w - 1))))

let suite =
  [
    ( "image",
      [
        Alcotest.test_case "seal then verify" `Quick test_seal_verifies;
        Alcotest.test_case "sealed code is SFI-rewritten" `Quick
          test_sealed_code_is_rewritten;
        Alcotest.test_case "relocations track rewritten indices" `Quick
          test_relocations_track_rewritten_indices;
        Alcotest.test_case "tampering detected at verification" `Quick
          test_tampering_detected;
        Alcotest.test_case "unsafe seal skips SFI (bench only)" `Quick
          test_unsafe_seal_skips_sfi;
        Alcotest.test_case "serialise/deserialise round trip" `Quick
          test_serialise_roundtrip;
        Alcotest.test_case "deserialise rejects garbage" `Quick
          test_deserialise_garbage;
        Alcotest.test_case "save/load .gimg round trip" `Quick
          test_save_load_roundtrip;
        Alcotest.test_case "digest is sensitive to every word" `Quick
          test_signature_sensitivity;
        Alcotest.test_case "non-canonical streams refused" `Quick
          test_non_canonical_stream_refused;
        Alcotest.test_case "streamed signature matches serialised stream"
          `Quick test_streamed_signature_matches_serialised;
        QCheck_alcotest.to_alcotest prop_digest_bit_and_key_sensitive;
        QCheck_alcotest.to_alcotest prop_digest_top_bit_flips;
        Alcotest.test_case "bit-62 edit with re-flipped signature rejected"
          `Quick test_top_bit_edit_rejected;
      ] );
  ]
