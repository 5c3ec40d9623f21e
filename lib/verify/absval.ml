module Insn = Vino_vm.Insn

type itv = { lo : int; hi : int }

let neg_inf = min_int
let pos_inf = max_int

let itv lo hi =
  if lo > hi then invalid_arg "Absval.itv: empty interval";
  { lo; hi }

let const_itv c = { lo = c; hi = c }
let top_itv = { lo = neg_inf; hi = pos_inf }
let is_const i = if i.lo = i.hi then Some i.lo else None

(* Bounds are machine ints and registers wrap, so [max_int] is a value
   a register can hold, not an infinity: an addition or subtraction that
   overflows either bound gives the full range. A sum overflows iff its
   sign differs from both addends'; a difference, iff the operands' signs
   differ and the result's differs from the minuend's. *)
let itv_add a b =
  let lo = a.lo + b.lo and hi = a.hi + b.hi in
  if
    (a.lo lxor lo) land (b.lo lxor lo) < 0
    || (a.hi lxor hi) land (b.hi lxor hi) < 0
  then top_itv
  else { lo; hi }

let itv_sub a b =
  let lo = a.lo - b.hi and hi = a.hi - b.lo in
  if
    (a.lo lxor b.hi) land (a.lo lxor lo) < 0
    || (a.hi lxor b.lo) land (a.hi lxor hi) < 0
  then top_itv
  else { lo; hi }

let itv_neg a = itv_sub (const_itv 0) a

(* Branch refinement only narrows, so it may clamp at the ends of the
   range instead of wrapping. *)
let sat_pred a = if a = neg_inf || a = pos_inf then a else a - 1
let sat_succ a = if a = neg_inf || a = pos_inf then a else a + 1

let itv_hull a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }

let itv_meet a b =
  let lo = max a.lo b.lo and hi = min a.hi b.hi in
  if lo > hi then None else Some { lo; hi }

type t =
  | Bot
  | Num of itv
  | Cid of int
  | Seg of itv
  | Stk of itv
  | InSeg
  | Top

let equal a b =
  match (a, b) with
  | Bot, Bot | InSeg, InSeg | Top, Top -> true
  | Num i, Num j | Seg i, Seg j | Stk i, Stk j -> i.lo = j.lo && i.hi = j.hi
  | Cid c, Cid d -> c = d
  | (Bot | Num _ | Cid _ | Seg _ | Stk _ | InSeg | Top), _ -> false

let num c = Num (const_itv c)

(* Interval view of the comparable kinds: numbers compare with numbers,
   segment pointers with segment pointers, stack pointers with stack
   pointers. Mixed kinds have unknown relative order (the base address is
   not statically known). *)
type kind = KNum | KSeg | KStk

let kinded = function
  | Num i -> Some (KNum, i)
  | Cid c -> Some (KNum, const_itv c)
  | Seg i -> Some (KSeg, i)
  | Stk i -> Some (KStk, i)
  | Bot | InSeg | Top -> None

let rebuild k i = match k with KNum -> Num i | KSeg -> Seg i | KStk -> Stk i

(* [join] and [widen] hand back their first argument when the two are
   equal, so a merge that moves no register allocates nothing. *)
let join a b =
  match (a, b) with
  | _ when equal a b -> a
  | Bot, x | x, Bot -> x
  | Top, _ | _, Top -> Top
  | _ -> (
      match (kinded a, kinded b) with
      | Some (ka, ia), Some (kb, ib) when ka = kb -> rebuild ka (itv_hull ia ib)
      | _ -> Top)

let widen old next =
  match (old, next) with
  | _ when equal old next -> old
  | Bot, x | x, Bot -> x
  | _ -> (
      match (kinded old, kinded next) with
      | Some (ka, ia), Some (kb, ib) when ka = kb ->
          rebuild ka
            {
              lo = (if ib.lo < ia.lo then neg_inf else ia.lo);
              hi = (if ib.hi > ia.hi then pos_inf else ia.hi);
            }
      | _ -> Top)

(* ----------------------------- transfer ------------------------------- *)

let as_num = function
  | Num i -> Some i
  | Cid c -> Some (const_itv c)
  | _ -> None

let num_top = Num top_itv

let is_zero v = match as_num v with Some i -> is_const i = Some 0 | None -> false

let is_bot = function Bot -> true | _ -> false

let alu (op : Insn.alu) a b =
  if is_bot a || is_bot b then Bot
  else
    let const2 =
      match (as_num a, as_num b) with
      | Some ia, Some ib -> (
          match (is_const ia, is_const ib) with
          | Some x, Some y -> Some (x, y)
          | _ -> None)
      | _ -> None
    in
    match op with
    | Add -> (
        if is_zero b then a
        else if is_zero a then b
        else
          match (a, b, as_num a, as_num b) with
          | Seg i, _, _, Some n | _, Seg i, Some n, _ -> Seg (itv_add i n)
          | Stk i, _, _, Some n | _, Stk i, Some n, _ -> Stk (itv_add i n)
          | _, _, Some ia, Some ib -> Num (itv_add ia ib)
          | _ -> Top)
    | Sub -> (
        if is_zero b then a
        else
          match (a, b) with
          | Seg i, Seg j | Stk i, Stk j -> Num (itv_sub i j)
          | Seg i, _ when as_num b <> None ->
              Seg (itv_sub i (Option.get (as_num b)))
          | Stk i, _ when as_num b <> None ->
              Stk (itv_sub i (Option.get (as_num b)))
          | _ -> (
              match (as_num a, as_num b) with
              | Some ia, Some ib -> Num (itv_sub ia ib)
              | _ -> Top))
    | Mul -> (
        match const2 with
        | Some (x, y) -> num (x * y)
        | None ->
            if is_zero a || is_zero b then num 0
            else if as_num a <> None && as_num b <> None then num_top
            else Top)
    | Div | Rem -> (
        match const2 with
        | Some (_, 0) -> num_top (* faults at run time; flagged separately *)
        | Some (x, y) -> num (Insn.eval_alu op x y)
        | None -> (
            match (op, as_num a, as_num b) with
            | Rem, Some ia, Some ib -> (
                (* OCaml [mod]: |a mod d| < |d|, sign follows the dividend *)
                match is_const ib with
                | Some d when d <> 0 ->
                    let m = abs d - 1 in
                    if ia.lo >= 0 then Num { lo = 0; hi = m }
                    else Num { lo = -m; hi = m }
                | _ -> num_top)
            | _, Some _, Some _ -> num_top
            | _ -> Top))
    | And -> (
        match const2 with
        | Some (x, y) -> num (x land y)
        | None -> (
            (* [land] with a non-negative constant mask bounds the result
               regardless of the other operand *)
            let mask = function
              | Some i -> (
                  match is_const i with Some m when m >= 0 -> Some m | _ -> None)
              | None -> None
            in
            match (mask (as_num a), mask (as_num b)) with
            | Some m, _ | _, Some m -> Num { lo = 0; hi = m }
            | None, None ->
                if as_num a <> None && as_num b <> None then num_top else Top))
    | Or | Xor | Shl | Shr -> (
        match const2 with
        | Some (x, y) -> num (Insn.eval_alu op x y)
        | None -> if as_num a <> None && as_num b <> None then num_top else Top)

(* ---------------------------- refinement ------------------------------ *)

let negate_cond : Insn.cond -> Insn.cond = function
  | Eq -> Ne
  | Ne -> Eq
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt

let refine (c : Insn.cond) a b =
  if is_bot a || is_bot b then Error `Infeasible
  else
    match (kinded a, kinded b) with
    | Some (ka, ia), Some (kb, ib) when ka = kb -> (
        let pack ia' ib' = Ok (Some (rebuild ka ia', rebuild ka ib')) in
        let ordered lim_a lim_b =
          match (itv_meet ia lim_a, itv_meet ib lim_b) with
          | Some ia', Some ib' -> pack ia' ib'
          | _ -> Error `Infeasible
        in
        match c with
        | Eq -> (
            match itv_meet ia ib with
            | Some m -> pack m m
            | None -> Error `Infeasible)
        | Ne -> (
            match (is_const ia, is_const ib) with
            | Some x, Some y when x = y -> Error `Infeasible
            | _, Some y ->
                let ia' =
                  if ia.lo = y then { ia with lo = sat_succ ia.lo }
                  else if ia.hi = y then { ia with hi = sat_pred ia.hi }
                  else ia
                in
                if ia'.lo > ia'.hi then Error `Infeasible else pack ia' ib
            | Some x, None ->
                let ib' =
                  if ib.lo = x then { ib with lo = sat_succ ib.lo }
                  else if ib.hi = x then { ib with hi = sat_pred ib.hi }
                  else ib
                in
                if ib'.lo > ib'.hi then Error `Infeasible else pack ia ib'
            | None, None -> Ok None)
        | Lt ->
            ordered
              { lo = neg_inf; hi = sat_pred ib.hi }
              { lo = sat_succ ia.lo; hi = pos_inf }
        | Le ->
            ordered { lo = neg_inf; hi = ib.hi } { lo = ia.lo; hi = pos_inf }
        | Gt ->
            ordered
              { lo = sat_succ ib.lo; hi = pos_inf }
              { lo = neg_inf; hi = sat_pred ia.hi }
        | Ge ->
            ordered { lo = ib.lo; hi = pos_inf } { lo = neg_inf; hi = ia.hi })
    | _ -> Ok None

(* ------------------------------ printing ------------------------------ *)

let pp_bound ppf v =
  if v = neg_inf then Format.pp_print_string ppf "-inf"
  else if v = pos_inf then Format.pp_print_string ppf "+inf"
  else Format.pp_print_int ppf v

let pp_itv ppf i =
  if i.lo = i.hi then pp_bound ppf i.lo
  else Format.fprintf ppf "%a..%a" pp_bound i.lo pp_bound i.hi

let pp ppf = function
  | Bot -> Format.pp_print_string ppf "bot"
  | Num i -> Format.fprintf ppf "num(%a)" pp_itv i
  | Cid c -> Format.fprintf ppf "callable#%d" c
  | Seg i -> Format.fprintf ppf "seg+%a" pp_itv i
  | Stk i -> Format.fprintf ppf "stack%s%a" (if i.lo >= 0 then "+" else "") pp_itv i
  | InSeg -> Format.pp_print_string ppf "in-segment"
  | Top -> Format.pp_print_string ppf "top"
