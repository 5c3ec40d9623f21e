let words_per_insn = 4

let alu_code : Insn.alu -> int = function
  | Add -> 0
  | Sub -> 1
  | Mul -> 2
  | Div -> 3
  | Rem -> 4
  | And -> 5
  | Or -> 6
  | Xor -> 7
  | Shl -> 8
  | Shr -> 9

let alu_of_code = function
  | 0 -> Ok Insn.Add
  | 1 -> Ok Insn.Sub
  | 2 -> Ok Insn.Mul
  | 3 -> Ok Insn.Div
  | 4 -> Ok Insn.Rem
  | 5 -> Ok Insn.And
  | 6 -> Ok Insn.Or
  | 7 -> Ok Insn.Xor
  | 8 -> Ok Insn.Shl
  | 9 -> Ok Insn.Shr
  | n -> Error (Printf.sprintf "bad ALU op code %d" n)

let cond_code : Insn.cond -> int = function
  | Eq -> 0
  | Ne -> 1
  | Lt -> 2
  | Le -> 3
  | Gt -> 4
  | Ge -> 5

let cond_of_code = function
  | 0 -> Ok Insn.Eq
  | 1 -> Ok Insn.Ne
  | 2 -> Ok Insn.Lt
  | 3 -> Ok Insn.Le
  | 4 -> Ok Insn.Gt
  | 5 -> Ok Insn.Ge
  | n -> Error (Printf.sprintf "bad condition code %d" n)

(* The four words of one instruction, fed to [f] in stream order: the
   single definition of the cell layout, shared by [to_words] and by
   every digest that folds the stream without building it. *)
let fold_cell f acc (i : Insn.t) =
  match i with
  | Li (r, v) -> f (f (f (f acc 0) r) v) 0
  | Mov (a, b) -> f (f (f (f acc 1) a) b) 0
  | Alu (op, d, a, b) -> f (f (f (f acc 2) (alu_code op)) d) ((a lsl 8) lor b)
  | Alui (op, d, a, v) -> f (f (f (f acc 3) ((alu_code op lsl 8) lor d)) a) v
  | Ld (d, b, o) -> f (f (f (f acc 4) d) b) o
  | St (v, b, o) -> f (f (f (f acc 5) v) b) o
  | Br (c, a, b, t) -> f (f (f (f acc 6) ((cond_code c lsl 8) lor a)) b) t
  | Jmp t -> f (f (f (f acc 7) t) 0) 0
  | Call t -> f (f (f (f acc 8) t) 0) 0
  | Callr r -> f (f (f (f acc 9) r) 0) 0
  | Ret -> f (f (f (f acc 10) 0) 0) 0
  | Kcall id -> f (f (f (f acc 11) id) 0) 0
  | Kcallr r -> f (f (f (f acc 12) r) 0) 0
  | Push r -> f (f (f (f acc 13) r) 0) 0
  | Pop r -> f (f (f (f acc 14) r) 0) 0
  | Sandbox r -> f (f (f (f acc 15) r) 0) 0
  | Checkcall r -> f (f (f (f acc 16) r) 0) 0
  | Halt -> f (f (f (f acc 17) 0) 0) 0

let fold f acc prog =
  let acc = ref acc in
  for k = 0 to Array.length prog - 1 do
    acc := fold_cell f !acc prog.(k)
  done;
  !acc

let to_words prog =
  let out = Array.make (Array.length prog * words_per_insn) 0 in
  let put k w =
    out.(k) <- w;
    k + 1
  in
  ignore (fold put 0 prog : int);
  out

let decode_cell op a b c : (Insn.t, string) result =
  match op with
  | 0 -> Ok (Insn.Li (a, b))
  | 1 -> Ok (Insn.Mov (a, b))
  | 2 ->
      Result.map
        (fun alu -> Insn.Alu (alu, b, c lsr 8, c land 0xff))
        (alu_of_code a)
  | 3 ->
      Result.map
        (fun alu -> Insn.Alui (alu, a land 0xff, b, c))
        (alu_of_code (a lsr 8))
  | 4 -> Ok (Insn.Ld (a, b, c))
  | 5 -> Ok (Insn.St (a, b, c))
  | 6 ->
      Result.map
        (fun cond -> Insn.Br (cond, a land 0xff, b, c))
        (cond_of_code (a lsr 8))
  | 7 -> Ok (Insn.Jmp a)
  | 8 -> Ok (Insn.Call a)
  | 9 -> Ok (Insn.Callr a)
  | 10 -> Ok Insn.Ret
  | 11 -> Ok (Insn.Kcall a)
  | 12 -> Ok (Insn.Kcallr a)
  | 13 -> Ok (Insn.Push a)
  | 14 -> Ok (Insn.Pop a)
  | 15 -> Ok (Insn.Sandbox a)
  | 16 -> Ok (Insn.Checkcall a)
  | 17 -> Ok Insn.Halt
  | n -> Error (Printf.sprintf "unknown opcode %d" n)

let of_words words =
  let n = Array.length words in
  if n mod words_per_insn <> 0 then Error "truncated instruction stream"
  else
    let count = n / words_per_insn in
    let rec build acc k =
      if k = count then Ok (Array.of_list (List.rev acc))
      else
        match
          decode_cell
            words.(4 * k)
            words.((4 * k) + 1)
            words.((4 * k) + 2)
            words.((4 * k) + 3)
        with
        | Ok i -> build (i :: acc) (k + 1)
        | Error _ as e -> e
    in
    build [] 0
