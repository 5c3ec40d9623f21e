type reg = int

let num_regs = 16
let sp = 15
let scratch = 14

type cond = Eq | Ne | Lt | Le | Gt | Ge
type alu = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr

type t =
  | Li of reg * int
  | Mov of reg * reg
  | Alu of alu * reg * reg * reg
  | Alui of alu * reg * reg * int
  | Ld of reg * reg * int
  | St of reg * reg * int
  | Br of cond * reg * reg * int
  | Jmp of int
  | Call of int
  | Callr of reg
  | Ret
  | Kcall of int
  | Kcallr of reg
  | Push of reg
  | Pop of reg
  | Sandbox of reg
  | Checkcall of reg
  | Halt

let eval_cond c a b =
  match c with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b

let eval_alu op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> a / b
  | Rem -> a mod b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  (* OCaml's lsl/asr are unspecified outside [0, Sys.int_size]; the VM
     clamps so shifts are total and deterministic on every word size
     (the old [b land 63] mask was still unspecified on 32-bit hosts) *)
  | Shl -> if b < 0 then a else if b >= Sys.int_size then 0 else a lsl b
  | Shr ->
      if b < 0 then a
      else if b >= Sys.int_size then if a < 0 then -1 else 0
      else a asr b

let is_memory_access = function
  | Ld _ | St _ | Push _ | Pop _ -> true
  | Li _ | Mov _ | Alu _ | Alui _ | Br _ | Jmp _ | Call _ | Callr _ | Ret
  | Kcall _ | Kcallr _ | Sandbox _ | Checkcall _ | Halt ->
      false

let map_targets f = function
  | Br (c, a, b, t) -> Br (c, a, b, f t)
  | Jmp t -> Jmp (f t)
  | Call t -> Call (f t)
  | ( Li _ | Mov _ | Alu _ | Alui _ | Ld _ | St _ | Callr _ | Ret | Kcall _
    | Kcallr _ | Push _ | Pop _ | Sandbox _ | Checkcall _ | Halt ) as i ->
      i

let fold_registers f acc = function
  | Li (r, _) | Callr r | Kcallr r | Push r | Pop r | Sandbox r | Checkcall r
    ->
      f acc r
  | Mov (a, b)
  | Alui (_, a, b, _)
  | Ld (a, b, _)
  | St (a, b, _)
  | Br (_, a, b, _) ->
      f (f acc a) b
  | Alu (_, a, b, c) -> f (f (f acc a) b) c
  | Jmp _ | Call _ | Kcall _ | Ret | Halt -> acc

let registers_used i = List.rev (fold_registers (fun rs r -> r :: rs) [] i)

let registers_in_range i =
  fold_registers (fun ok r -> ok && r >= 0 && r < num_regs) true i

let uses_scratch i = fold_registers (fun hit r -> hit || r = scratch) false i

let validate ~program_length i =
  let target_of = function
    | Br (_, _, _, t) | Jmp t | Call t -> Some t
    | Li _ | Mov _ | Alu _ | Alui _ | Ld _ | St _ | Callr _ | Ret | Kcall _
    | Kcallr _ | Push _ | Pop _ | Sandbox _ | Checkcall _ | Halt ->
        None
  in
  if not (registers_in_range i) then Error "register number out of range"
  else
    match target_of i with
    | Some t when t < 0 || t >= program_length ->
        Error (Printf.sprintf "control-flow target %d out of program" t)
    | Some _ | None -> Ok ()

let string_of_cond = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

let string_of_alu = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"

let pp ppf i =
  let f fmt = Format.fprintf ppf fmt in
  match i with
  | Li (r, v) -> f "li    r%d, %d" r v
  | Mov (a, b) -> f "mov   r%d, r%d" a b
  | Alu (op, d, a, b) -> f "%-5s r%d, r%d, r%d" (string_of_alu op) d a b
  | Alui (op, d, a, v) -> f "%-4si r%d, r%d, %d" (string_of_alu op) d a v
  | Ld (d, b, o) -> f "ld    r%d, %d(r%d)" d o b
  | St (v, b, o) -> f "st    r%d, %d(r%d)" v o b
  | Br (c, a, b, t) -> f "b%s   r%d, r%d, @%d" (string_of_cond c) a b t
  | Jmp t -> f "jmp   @%d" t
  | Call t -> f "call  @%d" t
  | Callr r -> f "callr r%d" r
  | Ret -> f "ret"
  | Kcall id -> f "kcall #%d" id
  | Kcallr r -> f "kcallr r%d" r
  | Push r -> f "push  r%d" r
  | Pop r -> f "pop   r%d" r
  | Sandbox r -> f "sfi.sandbox r%d" r
  | Checkcall r -> f "sfi.checkcall r%d" r
  | Halt -> f "halt"

let pp_program ppf prog =
  Array.iteri (fun k i -> Format.fprintf ppf "%4d: %a@." k pp i) prog
