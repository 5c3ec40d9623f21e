type t = int

let digest = Vino_vm.Fnv.digest
let fold ~key feed = feed Vino_vm.Fnv.word (Vino_vm.Fnv.init ~key)
let equal = Int.equal
let forge n = n
(* [%x] formats the int as unsigned (63-bit two's complement), so this is
   lossless — masking with [max_int] would alias digests differing only in
   the top bit. *)
let pp ppf t = Format.fprintf ppf "%016x" t
