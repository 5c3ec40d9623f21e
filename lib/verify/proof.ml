(* The portable form of a verification certificate: what a sealed image
   carries so the translator can compile proven-safe sites to bare
   superinstructions, and what the linker re-checks against the live
   kernel before trusting it. *)

type t = {
  words : int;
  safe : bool array;
  calls : int list;
}

let make ~words ~safe ~calls =
  if words < 1 then invalid_arg "Proof.make: words < 1";
  { words; safe = Array.copy safe; calls = List.sort_uniq compare calls }

let words t = t.words
let calls t = t.calls
let safe t = Array.copy t.safe
let safe_count t = Array.fold_left (fun n b -> if b then n + 1 else n) 0 t.safe
let length t = Array.length t.safe

let equal a b = a.words = b.words && a.safe = b.safe && a.calls = b.calls

(* Serialised form (one int array, version-tagged):
   [| version; words; nbits; bitword...; ncalls; call... |]
   with the safe bitmap packed 32 bits per word. *)

let version = 1
let bits_per_word = 32

let fold f acc t =
  let nbits = Array.length t.safe in
  let acc = ref (f (f (f acc version) t.words) nbits) in
  let base = ref 0 in
  while !base < nbits do
    let w = ref 0 in
    for k = 0 to min bits_per_word (nbits - !base) - 1 do
      if t.safe.(!base + k) then w := !w lor (1 lsl k)
    done;
    acc := f !acc !w;
    base := !base + bits_per_word
  done;
  List.fold_left f (f !acc (List.length t.calls)) t.calls

let serialise t =
  let nbits = Array.length t.safe in
  let nwords = (nbits + bits_per_word - 1) / bits_per_word in
  let out = Array.make (3 + nwords + 1 + List.length t.calls) 0 in
  let put k w =
    out.(k) <- w;
    k + 1
  in
  ignore (fold put 0 t : int);
  out

let deserialise words =
  let n = Array.length words in
  if n < 4 then Error "proof too short"
  else if words.(0) <> version then
    Error (Printf.sprintf "unknown proof version %d" words.(0))
  else
    let seg_words = words.(1) and nbits = words.(2) in
    if seg_words < 1 || nbits < 0 then Error "malformed proof header"
    else
      let nwords = (nbits + bits_per_word - 1) / bits_per_word in
      if 3 + nwords + 1 > n then Error "truncated proof bitmap"
      else
        let ncalls = words.(3 + nwords) in
        if ncalls < 0 || 3 + nwords + 1 + ncalls <> n then
          Error "truncated proof call list"
        else
          let safe =
            Array.init nbits (fun k ->
                words.(3 + (k / bits_per_word))
                land (1 lsl (k mod bits_per_word))
                <> 0)
          in
          let calls =
            List.init ncalls (fun k -> words.(3 + nwords + 1 + k))
          in
          if List.exists (fun id -> id < 0) calls then
            Error "negative id in proof call list"
          else Ok { words = seg_words; safe; calls = List.sort_uniq compare calls }

(* Unkeyed FNV-1a folded over the serialised words as [fold] walks them
   ({!Vino_vm.Fnv}, which also digests image signatures). Authenticity
   comes from the image signature, which covers the proof; the hash only
   has to separate translation cache entries. Never 0: that value is
   reserved for "no proof". *)
let hash t =
  let h = fold Vino_vm.Fnv.word (Vino_vm.Fnv.init ~key:"") t in
  if h = 0 then 1 else h

let hash_opt = function None -> 0 | Some t -> hash t

let pp ppf t =
  Format.fprintf ppf "proof: %d/%d accesses safe; callable {%s}; words>=%d"
    (safe_count t) (length t)
    (String.concat "," (List.map string_of_int t.calls))
    t.words
