let offset = 0x3f29ce484222325
let prime = 0x100000001b3
let[@inline] byte h b = (h lxor b) * prime

let digest ~key words =
  let h =
    ref (String.fold_left (fun h c -> byte h (Char.code c)) offset key)
  in
  for i = 0 to Array.length words - 1 do
    let w = words.(i) in
    for shift = 0 to 7 do
      h := byte !h ((w lsr (8 * shift)) land 0xff)
    done
  done;
  !h
