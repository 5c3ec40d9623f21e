let offset = 0x3f29ce484222325
let prime = 0x100000001b3
let[@inline] step h b = (h lxor b) * prime

(* Low half, then high half: no input reaches the state's top bit. *)
let[@inline] word h w = step (step h (w land 0xffff_ffff)) (w lsr 32)
let init ~key = String.fold_left (fun h c -> step h (Char.code c)) offset key
let digest ~key words = Array.fold_left word (init ~key) words
