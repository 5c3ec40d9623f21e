(* Closure-threaded translation of graft programs.

   The interpreter ({!Cpu.run}) pays a constructor match, a cost-table
   lookup, a fuel check and a poll check on every instruction. Here all
   of that is paid once per compiled window:

   - the program is split into basic blocks (leaders: pc 0, every
     branch/jump/call target, every instruction after a terminator);
   - every instruction is compiled to a pre-resolved closure; a window
     is the chain of those closures (direct threading);
   - the MiSFIT access group is fused with the ALU ops around it and a
     loop-closing [Jmp], as is the canonical transform-loop pass;
   - the fuel and abort-poll checks run once per window, not once per
     instruction.

   A window runs exactly [k] instructions from a pc. It follows
   straight-line code (a not-taken [Br] falls through inline), and inside
   a straight-line self-loop it also follows the back edge. One table,
   [rows.(pc)], holds every window from [pc]: one slot and one cycle
   charge per length [k]. {!translate} does only the O(n) part, at link
   time: leaders, each pc's run end and a cycle-cost prefix sum. {!drive}
   builds a row the first time it dispatches from its pc, its charges
   differences of the prefix sum, and compiles a slot the first time it
   runs it, so a graft pays to compile only the code it runs. A second
   table, [shapes.(pc)], keeps the fusion shape found at [pc] under its
   run end, derived once: every chained copy of a loop body reads it, as
   does a shorter range whose group ends inside it.

   A loop keeps one chained window per poll phase. A window never
   crosses a poll point, so a loop of [L] instructions entered every 32
   needs a closure per (pc, instructions to the next poll): lcm(L, 32)
   states, 224 for a 7-instruction loop, each of which would need a
   run-time copy count to share a body closure. Windows assembled from a
   body run [n] times, or windows that stop at the back edge, cut the
   cold first run but slowed warm loops by 16-37% (DESIGN.md §11).

   Equivalence with the interpreter is maintained exactly; the argument
   (DESIGN.md §11) rests on two mechanisms:

   Window choice. Before every dispatch the driver re-checks fuel, poll
   and pc bounds in the interpreter's order. It then takes [k] no larger
   than the instructions left before the next poll point, so no window
   crosses one. At a fuel edge it shrinks [k] to the largest value whose
   first [k - 1] instructions fit the fuel left: {!Cpu.run} starts an
   instruction whenever [cycles <= fuel], so those are exactly the
   instructions it would still start. [k = 1] always qualifies, so every
   dispatch runs compiled code.

   Pending counts. Within a window, instructions that cannot fault or
   observe the machine accumulate their cycle/instruction counts
   statically; any instruction that can fault, stop, or hand the cpu to
   kernel code (memory access, Div/Rem, Checkcall, Kcall, every
   terminator) first flushes the accumulated counts and stores its own
   pc, so the architectural state at every observable point — fault,
   abort, kernel call — is exactly what the interpreter would expose. *)

type mode = Interp | Translated

let default_mode = ref Translated

type ctx = {
  (* [cpu]/[env] are mutable only so a finished run can park the context
     in a per-domain pool without retaining the machine it ran. *)
  mutable cpu : Cpu.t;
  mutable env : Cpu.env;
  (* Closures hand control back as a bare pc (no allocation on the hot
     transfer path); to finish instead, a closure calls {!finish}, which
     raises this flag and parks the outcome. The driver reads and the
     run entry resets them. *)
  mutable fin : bool;
  mutable out : Cpu.outcome;
  (* Windows extend through a not-taken conditional branch; when a branch
     inside a window is taken, the window exits early and records here
     how many of its instructions it did NOT execute, so the driver can
     correct its poll-counter bookkeeping. Zero otherwise. *)
  mutable back : int;
}

let finish ctx o =
  ctx.fin <- true;
  ctx.out <- o;
  0

(* The windows from one pc. [slots.(k)] runs exactly [k] instructions
   from the pc and [charge.(k)] is their cycle cost; index 0 is unused.
   The pc's straight-line run ends before [stop]. When that run closes
   with a [Jmp] back to [head] inside the same run, windows follow the
   back edge through chained copies of the loop body ([head] is -1
   otherwise). Every slot starts as {!uncompiled}. *)
type row = {
  slots : (ctx -> int) array;
  charge : int array;
  stop : int;
  head : int;
}

(* A recognized access-group superinstruction. Two cores qualify:
   - confined: the access reads or writes the register the preceding
     [Sandbox] just confined, at offset 0 — the only address shapes
     MiSFIT emits — so when the segment lies inside memory the access
     cannot fault;
   - bare: an access the caller proved in-segment ([safe_at]),
     non-faulting by that proof, at any base/offset.
   Either way the whole group compiles as one straight-line,
   non-flushing closure. An ALU op forming the address before the group
   and an ALU op after it (consuming a load's datum, or the loop
   bookkeeping after a store) fuse into the same closure. *)
type confined = {
  c_pre : (int * int * int * int * bool) option;
      (* (opcode, rd, ra, operand, operand_is_immediate) *)
  c_sb : int;  (* pc of the Sandbox, for its cycle attribution;
                  -1 for a bare (proven) core *)
  c_dst : int;  (* register receiving the sandboxed address *)
  c_src : int;  (* register holding the raw address (confined) or the
                  access base register (bare) *)
  c_off : int;  (* access offset: 0 for confined cores, any for bare *)
  c_acc : int;  (* pc of the Ld/St *)
  c_tail : (int * int * int * int * bool) option;
  c_stop : int;  (* first pc after the group *)
}

(* The access group and the canonical loop pass that start at one pc
   (see {!confined_at} and {!canonical_pass}). Both depend on where the
   compiled range stops; {!shape_at} derives them under the pc's run
   end. *)
type shape = {
  group : confined option;
  pass : (confined * confined) option;
}

type t = {
  source : Insn.t array;
  safe_at : int -> bool;
  (* Every register number is in range: this licenses the fast bodies'
     unchecked register indexing. A program without it runs on
     {!Cpu.run}. *)
  regs_ok : bool;
  (* [stops.(pc)]: the end of [pc]'s straight-line run, at most
     {!max_window} instructions on. A run extends through a conditional
     branch (its fall-through stays inline) and stops after any other
     terminator or before a leader, so a basic block starts at [pc > 0]
     exactly when [stops.(pc - 1) = pc]. *)
  stops : int array;
  (* Cycle cost of instructions [0, pc): a straight run [lo, hi) costs
     [cost_prefix.(hi) - cost_prefix.(lo)]. *)
  cost_prefix : int array;
  (* Starts as {!unbuilt} everywhere; {!drive} builds a pc's row on its
     first dispatch from it. *)
  rows : row array;
  (* Starts as {!no_shape} everywhere; the first compile that reaches a
     pc derives its shape under [stops.(pc)] and stores it, and every
     later compile reads it back. *)
  shapes : shape array;
}

let source t = t.source

(* -------------------------------------------------------------------- *)
(* Pre-resolved operators                                                *)
(* -------------------------------------------------------------------- *)

let cond_fn : Insn.cond -> int -> int -> bool = function
  | Eq -> fun a b -> a = b
  | Ne -> fun a b -> a <> b
  | Lt -> fun a b -> a < b
  | Le -> fun a b -> a <= b
  | Gt -> fun a b -> a > b
  | Ge -> fun a b -> a >= b

(* Operators that cannot fault, encoded as small integers and evaluated
   by {!eval_opc}'s inline match inside closure bodies. The match
   compiles to a jump table whose target the branch predictor pins in a
   loop; calling a per-operator closure instead would spill the body's
   live registers around every call — measurably slower on the fused hot
   path. Shift clamping matches {!Insn.eval_alu} exactly. *)
let opcode : Insn.alu -> int option = function
  | Add -> Some 0
  | Sub -> Some 1
  | Mul -> Some 2
  | And -> Some 3
  | Or -> Some 4
  | Xor -> Some 5
  | Shl -> Some 6
  | Shr -> Some 7
  | Div | Rem -> None

let[@inline] eval_opc o a b =
  match o with
  | 0 -> a + b
  | 1 -> a - b
  | 2 -> a * b
  | 3 -> a land b
  | 4 -> a lor b
  | 5 -> a lxor b
  | 6 -> if b < 0 then a else if b >= Sys.int_size then 0 else a lsl b
  | _ ->
      if b < 0 then a
      else if b >= Sys.int_size then if a < 0 then -1 else 0
      else a asr b

(* Div/Rem share the interpreter's code path, fault mapping included. *)
let faulting_alu op a b =
  try Insn.eval_alu op a b
  with Division_by_zero -> raise (Cpu.Fault_exn Cpu.Division_by_zero)

(* Instructions that end a basic block. [Kcall]/[Kcallr] terminate
   because the kernel function receives the cpu: it may observe any
   counter, charge cycles or refuel, so state must be architecturally
   exact before dispatch and the driver's checks must rerun after. *)
let terminates : Insn.t -> bool = function
  | Br _ | Jmp _ | Call _ | Callr _ | Ret | Kcall _ | Kcallr _ | Halt -> true
  | Li _ | Mov _ | Alu _ | Alui _ | Ld _ | St _ | Push _ | Pop _ | Sandbox _
  | Checkcall _ ->
      false

(* -------------------------------------------------------------------- *)
(* Fast path: window bodies                                              *)
(* -------------------------------------------------------------------- *)

(* A non-faulting [Alu]/[Alui] as (opcode, rd, ra, operand,
   operand_is_immediate). *)
let alu_parts : Insn.t -> (int * int * int * int * bool) option = function
  | Alu (op, rd, ra, rb) -> (
      match opcode op with
      | Some o -> Some (o, rd, ra, rb, false)
      | None -> None)
  | Alui (op, rd, ra, imm) -> (
      match opcode op with
      | Some o -> Some (o, rd, ra, imm, true)
      | None -> None)
  | _ -> None

let confined_at prog ~safe_at ~stop pc : confined option =
  let pre, p =
    if pc + 1 < stop then
      match alu_parts prog.(pc) with
      | Some parts -> (Some parts, pc + 1)
      | None -> (None, pc)
    else (None, pc)
  in
  let core =
    if p + 2 < stop then
      match ((prog.(p) : Insn.t), prog.(p + 1), prog.(p + 2)) with
      | Mov (ra, rs), Sandbox a, (Ld (_, b, 0) | St (_, b, 0))
        when a = ra && b = ra ->
          Some (p + 1, ra, rs, 0, p + 2)
      | _ -> None
    else None
  in
  let core =
    match core with
    | Some _ -> core
    | None ->
        if p + 1 < stop then
          match ((prog.(p) : Insn.t), prog.(p + 1)) with
          | Sandbox rs, (Ld (_, b, 0) | St (_, b, 0)) when b = rs ->
              Some (p, rs, rs, 0, p + 1)
          | _ -> None
        else None
  in
  let core =
    (* A proven access needs no sandbox: the bare [Ld]/[St] itself
       is the core, at whatever base/offset the verified code uses. *)
    match core with
    | Some _ -> core
    | None ->
        if p < stop then
          match (prog.(p) : Insn.t) with
          | (Ld (_, b, off) | St (_, b, off)) when safe_at p ->
              Some (-1, b, b, off, p)
          | _ -> None
        else None
  in
  match core with
  | None -> None
  | Some (c_sb, c_dst, c_src, c_off, c_acc) ->
      let c_tail =
        (* after a load the tail ALU typically consumes the datum; after
           a store it is the loop bookkeeping (index increment) — either
           way it is straight-line and non-faulting, so it rides along *)
        if c_acc + 1 < stop then alu_parts prog.(c_acc + 1) else None
      in
      let c_stop = c_acc + 1 + match c_tail with Some _ -> 1 | None -> 0 in
      Some { c_pre = pre; c_sb; c_dst; c_src; c_off; c_acc; c_tail; c_stop }

(* The canonical transform-loop pass from the [Br] at [pc]: a [Ge] guard
   on the index, a load group and a store group — both confined or both
   bare — each forming its address as base + index ([Add]), a datum op
   after the load, the index advance ([Alui Add]) after the store, and
   the loop-closing [Jmp] at [stop - 1]. *)
let canonical_pass prog ~safe_at ~stop pc =
  let group p = if p < stop then confined_at prog ~safe_at ~stop p else None in
  match ((prog.(pc) : Insn.t), group (pc + 1)) with
  | Br (Ge, _, _, _), Some g1 -> (
      match group g1.c_stop with
      | Some g2
        when g2.c_stop = stop - 1 && Bool.equal (g1.c_sb < 0) (g2.c_sb < 0)
        -> (
          match
            ( g1.c_pre,
              (prog.(g1.c_acc) : Insn.t),
              g1.c_tail,
              g2.c_pre,
              (prog.(g2.c_acc) : Insn.t),
              g2.c_tail,
              (prog.(stop - 1) : Insn.t) )
          with
          | ( Some (0, _, _, _, false),
              Ld _,
              Some _,
              Some (0, _, _, _, false),
              St _,
              Some (0, _, _, _, true),
              Jmp _ ) ->
              Some (g1, g2)
          | _ -> None)
      | _ -> None)
  | _ -> None

let no_shape = { group = None; pass = None }

(* [pc]'s shape for a range ending at [stop <= stops.(pc)]. The table
   holds the shape derived under the run end, once; a derived shape is a
   fresh record, so {!no_shape} in the table means underived. A shorter
   range reuses it when its group ends inside the range: a group needs
   only the instructions up to its end, so a fresh derivation would find
   the same one, and a pc with no group under the run end has none under
   any shorter end. Otherwise the group straddles [stop], and the range
   gets an uncached derivation. The pass is read only by a chained copy,
   whose range ends at the run end. Only an ALU op, a move, a sandbox, an
   access or a branch can start a group or a pass; every other pc gets
   {!no_shape} without touching the table. Domains racing on a fill store
   equal shapes, as for {!rows}. *)
let shape_at t ~stop pc =
  match (t.source.(pc) : Insn.t) with
  | (Alu _ | Alui _ | Mov _ | Sandbox _ | Ld _ | St _ | Br _) as i -> (
      let safe_at = t.safe_at in
      let s = t.shapes.(pc) in
      let s =
        if s != no_shape then s
        else
          let stop = t.stops.(pc) in
          let s =
            {
              group = confined_at t.source ~safe_at ~stop pc;
              pass =
                (match i with
                | Br _ -> canonical_pass t.source ~safe_at ~stop pc
                | _ -> None);
            }
          in
          t.shapes.(pc) <- s;
          s
      in
      match s.group with
      | Some g when g.c_stop > stop ->
          { group = confined_at t.source ~safe_at ~stop pc; pass = None }
      | Some _ | None -> s)
  | Li _ | Jmp _ | Call _ | Callr _ | Ret | Kcall _ | Kcallr _ | Push _
  | Pop _ | Checkcall _ | Halt ->
      no_shape

(* Cycle cost of the instructions [lo, hi). *)
let[@inline] cost t lo hi = t.cost_prefix.(hi) - t.cost_prefix.(lo)

(* Fast bodies index the register file with compile-time register
   numbers that [translate] validates up front (a program that fails
   validation runs on {!Cpu.run}), and the program array with indices
   guarded by [stop <= Array.length prog], so indexing inside
   [compile_block] is unchecked: the [Array] shadow is scoped to this
   submodule. Everything else keeps checked indexing. *)
module Fast_body = struct
  module Array = struct
    include Stdlib.Array

    external get : 'a array -> int -> 'a = "%array_unsafe_get"
    external set : 'a array -> int -> 'a -> unit = "%array_unsafe_set"
  end

  (* Adds the pending sandbox-cycle, cycle, instruction and access counts
     to the cpu: the flush every observable point performs first. *)
  let[@inline] flush (t : Cpu.t) s c i a =
    if s <> 0 then t.sandbox_cy <- t.sandbox_cy + s;
    t.cycles <- t.cycles + c;
    t.insns <- t.insns + i;
    t.accesses <- t.accesses + a

  (* The second ALU operand: the immediate itself, or the register it
     names. *)
  let[@inline] operand (r : int array) imm x = if imm then x else r.(x)

  let[@inline] kcall ctx id t next =
    match ctx.env.Cpu.kcall id t with
    | Cpu.K_ok -> next
    | Cpu.K_abort reason -> finish ctx (Cpu.Aborted reason)
    | Cpu.K_fault f -> finish ctx (Cpu.Faulted f)

  (* Compile instructions [start, stop) into one closure chain, followed
     by [rest] more instructions of a self-loop whose head is [head].
     [pend_c] / [pend_i] / [pend_a] are cycles/instructions/memory-accesses
     executed since the last flush; they are added to the cpu before
     anything that can fault, stop or observe it, together with that
     instruction's own charge (the interpreter charges an instruction
     before executing it). [pend_s] holds the sandbox cycles of fused
     access groups, dumped at the same flush points.

     With [rest > 0] the range is one copy of an unrolled self-loop, and
     its block-final [Jmp] (whose target is [head] by construction at the
     call site) falls straight into the next copy's first closure instead
     of handing the target back to {!drive}: [copy] compiles that copy
     from the head, during compilation, with the pending counts up to and
     including the jump, so a whole unrolled window flushes once, at its
     final flush point, instead of once per copy. Anything observable
     inside a copy (a fault, a kcall, a taken branch) still flushes the
     carried pends first, exactly as within a single block. [rest] is
     also added to an inline branch's not-run remainder, so the poll
     arithmetic of {!drive} covers the whole unrolled sequence. Every count
     passes as a bare int: chaining a copy allocates only its closures. *)
  let compile_block t ~start ~stop ~head ~rest ~fused ~elided =
    let prog = t.source in
    let rec comp pc stop rest pend_c pend_i pend_a pend_s : ctx -> int =
      if pc >= stop then fun ctx ->
        flush ctx.cpu pend_s pend_c pend_i pend_a;
        pc
      else
        let next = pc + 1 in
        let own = cost t pc next in
        (* the counts through this instruction, for an arm flushing at it *)
        let dc = pend_c + own and di = pend_i + 1 in
        let shape = shape_at t ~stop pc in
        match (prog.(pc) : Insn.t) with
        (* ---- fused superinstructions ---- *)
        | Br (_, bra, brb, btarget)
          when rest > 0 && Option.is_some shape.pass ->
            (* The canonical transform-loop pass (see {!canonical_pass})
               as one closure, when it is one copy of an unrolled window.
               Both groups are non-faulting (confined or proven, see
               {!confined_at}), so nothing between the branch test and the
               jump can observe the machine, and the whole pass's counts
               ride into the next copy's pending accumulators. Every shape
               test and opcode is resolved here, at build time; the
               register writes are the interpreter's, in its order. The
               taken guard exits early exactly like an inline [Br]. *)
            let g1, g2 = Option.get shape.pass in
            let bare = g1.c_sb < 0 in
            fused := !fused + (stop - pc - 1);
            if bare then elided := !elided + 2;
            let sb (g : confined) =
              if g.c_sb < 0 then 0 else cost t g.c_sb (g.c_sb + 1)
            in
            let back = stop - next + rest in
            let taken ctx =
              flush ctx.cpu pend_s dc di pend_a;
              ctx.back <- back;
              btarget
            in
            let fields (g : confined) =
              match (g.c_pre, (prog.(g.c_acc) : Insn.t), g.c_tail) with
              | ( Some (_, pd, pa, px, _),
                  (Ld (rw, _, _) | St (rw, _, _)),
                  Some (qo, qd, qa, qx, qi) ) ->
                  (pd, pa, px, rw, qo, qd, qa, qx, qi)
              | _ -> assert false
            in
            let p1d, p1a, p1x, p1rw, q1o, q1d, q1a, q1x, q1i = fields g1 in
            let p2d, p2a, p2x, p2rw, _, q2d, q2a, q2x, _ = fields g2 in
            let p1src = g1.c_src and p1dst = g1.c_dst and p1off = g1.c_off in
            let p2src = g2.c_src and p2dst = g2.c_dst and p2off = g2.c_off in
            let g =
              copy stop rest
                (pend_c + cost t pc stop)
                (pend_i + (stop - pc))
                (pend_a + 2)
                (pend_s + sb g1 + sb g2)
            in
            if not bare then fun ctx ->
              let t : Cpu.t = ctx.cpu in
              let r = t.regs in
              if r.(bra) >= r.(brb) then taken ctx
              else begin
                r.(p1d) <- r.(p1a) + r.(p1x);
                let x = Mem.sandbox t.seg r.(p1src) in
                r.(p1dst) <- x;
                r.(p1rw) <- Mem.unsafe_load t.mem x;
                r.(q1d) <- eval_opc q1o r.(q1a) (if q1i then q1x else r.(q1x));
                r.(p2d) <- r.(p2a) + r.(p2x);
                let x2 = Mem.sandbox t.seg r.(p2src) in
                r.(p2dst) <- x2;
                Mem.unsafe_store t.mem x2 r.(p2rw);
                r.(q2d) <- r.(q2a) + q2x;
                g ctx
              end
            else fun ctx ->
              let t : Cpu.t = ctx.cpu in
              let r = t.regs in
              if r.(bra) >= r.(brb) then taken ctx
              else begin
                r.(p1d) <- r.(p1a) + r.(p1x);
                r.(p1rw) <- Mem.load t.mem (r.(p1src) + p1off);
                r.(q1d) <- eval_opc q1o r.(q1a) (if q1i then q1x else r.(q1x));
                r.(p2d) <- r.(p2a) + r.(p2x);
                Mem.store t.mem (r.(p2src) + p2off) r.(p2rw);
                r.(q2d) <- r.(q2a) + q2x;
                g ctx
              end
        | (Alu _ | Alui _ | Mov _ | Sandbox _ | Ld _ | St _)
          when Option.is_some shape.group -> (
            (* An access-group superinstruction (see {!confined_at}): the
               accessed address is the just-sandboxed register at offset
               0, so it is inside the segment by construction — or the
               access is proven in-segment, non-faulting outright
               (bare core). The driver only runs windows when the segment
               lies inside memory ({!seg_confined}), so the access cannot
               fault — no flush, no pc store; every count joins the
               pending accumulator like any straight-line instruction.
               [sandbox_cy] joins a fourth pending accumulator ([pend_s])
               dumped at the next flush point — the earliest the
               interpreter's value is observable, by which time it
               includes this charge either way. The optional
               address-forming prelude and trailing ALU ops ride along:
               they are non-faulting and sequenced exactly as the
               interpreter would, so the whole compute/sandbox/access/
               consume rhythm of a MiSFIT (or verified) loop body is one
               closure. *)
            match shape.group with
            | None -> assert false
            | Some c ->
                let count = c.c_stop - pc in
                fused := !fused + (count - 1);
                if c.c_sb < 0 then incr elided;
                let sb = if c.c_sb < 0 then 0 else cost t c.c_sb (c.c_sb + 1) in
                let pend_c = pend_c + cost t pc c.c_stop
                and pend_i = pend_i + count
                and pend_a = pend_a + 1 in
                let ps = pend_s + sb in
                let has_pre, o1, d1, a1, x1, imm1 =
                  match c.c_pre with
                  | Some (f, d, a, x, im) -> (true, f, d, a, x, im)
                  | None -> (false, 0, 0, 0, 0, false)
                in
                let has_tail, o2, d2, a2, x2, imm2 =
                  match c.c_tail with
                  | Some (f, d, a, x, im) -> (true, f, d, a, x, im)
                  | None -> (false, 0, 0, 0, 0, false)
                in
                let dst = c.c_dst and src = c.c_src in
                (* A loop-closing [Jmp] right after the group fuses too:
                   the flush it would perform moves into the group's
                   closure, which then hands the branch target straight
                   back to the driver (or, in an unrolled window, falls
                   into the next copy) — one closure for the whole
                   compute/sandbox/access/advance/jump rhythm. *)
                let jmp_target =
                  if c.c_stop = stop - 1 then
                    match (prog.(c.c_stop) : Insn.t) with
                    | Jmp target -> Some target
                    | _ -> None
                  else None
                in
                let bare = c.c_sb < 0 in
                let off = c.c_off in
                match ((prog.(c.c_acc) : Insn.t), jmp_target) with
                | Ld (rd, _, _), None when not bare ->
                    let after =
                      comp c.c_stop stop rest pend_c pend_i pend_a ps
                    in
                    fun ctx ->
                      let t : Cpu.t = ctx.cpu in
                      let r = t.regs in
                      if has_pre then
                        r.(d1) <- eval_opc o1 r.(a1) (operand r imm1 x1);
                      let x = Mem.sandbox t.seg r.(src) in
                      r.(dst) <- x;
                      r.(rd) <- Mem.unsafe_load t.mem x;
                      if has_tail then
                        r.(d2) <- eval_opc o2 r.(a2) (operand r imm2 x2);
                      after ctx
                | St (rv, _, _), None when not bare ->
                    let after =
                      comp c.c_stop stop rest pend_c pend_i pend_a ps
                    in
                    fun ctx ->
                      let t : Cpu.t = ctx.cpu in
                      let r = t.regs in
                      if has_pre then
                        r.(d1) <- eval_opc o1 r.(a1) (operand r imm1 x1);
                      let x = Mem.sandbox t.seg r.(src) in
                      r.(dst) <- x;
                      Mem.unsafe_store t.mem x r.(rv);
                      if has_tail then
                        r.(d2) <- eval_opc o2 r.(a2) (operand r imm2 x2);
                      after ctx
                | Ld (rd, _, _), None ->
                    let after =
                      comp c.c_stop stop rest pend_c pend_i pend_a ps
                    in
                    fun ctx ->
                      let t : Cpu.t = ctx.cpu in
                      let r = t.regs in
                      if has_pre then
                        r.(d1) <- eval_opc o1 r.(a1) (operand r imm1 x1);
                      r.(rd) <- Mem.load t.mem (r.(src) + off);
                      if has_tail then
                        r.(d2) <- eval_opc o2 r.(a2) (operand r imm2 x2);
                      after ctx
                | St (rv, _, _), None ->
                    let after =
                      comp c.c_stop stop rest pend_c pend_i pend_a ps
                    in
                    fun ctx ->
                      let t : Cpu.t = ctx.cpu in
                      let r = t.regs in
                      if has_pre then
                        r.(d1) <- eval_opc o1 r.(a1) (operand r imm1 x1);
                      Mem.store t.mem (r.(src) + off) r.(rv);
                      if has_tail then
                        r.(d2) <- eval_opc o2 r.(a2) (operand r imm2 x2);
                      after ctx
                | ((Ld (rw, _, _) | St (rw, _, _)) as acc), Some target -> (
                    incr fused;
                    let is_ld = match acc with Ld _ -> true | _ -> false in
                    let effects ctx =
                      let t : Cpu.t = ctx.cpu in
                      let r = t.regs in
                      if has_pre then
                        r.(d1) <- eval_opc o1 r.(a1) (operand r imm1 x1);
                      if bare then
                        if is_ld then r.(rw) <- Mem.load t.mem (r.(src) + off)
                        else Mem.store t.mem (r.(src) + off) r.(rw)
                      else begin
                        let x = Mem.sandbox t.seg r.(src) in
                        r.(dst) <- x;
                        if is_ld then r.(rw) <- Mem.unsafe_load t.mem x
                        else Mem.unsafe_store t.mem x r.(rw)
                      end;
                      if has_tail then
                        r.(d2) <- eval_opc o2 r.(a2) (operand r imm2 x2)
                    in
                    let dc = pend_c + cost t c.c_stop (c.c_stop + 1)
                    and di = pend_i + 1 in
                    if rest = 0 then fun ctx ->
                      effects ctx;
                      flush ctx.cpu ps dc di pend_a;
                      target
                    else
                      let g = copy stop rest dc di pend_a ps in
                      fun ctx ->
                        effects ctx;
                        g ctx)
                | _ -> assert false)
        (* ---- straight-line instructions ---- *)
        | Li (rd, v) ->
            let after = comp next stop rest dc di pend_a pend_s in
            fun ctx ->
              (ctx.cpu : Cpu.t).regs.(rd) <- v;
              after ctx
        | (Alu (op, rd, ra, x) | Alui (op, rd, ra, x)) as i -> (
            let imm = match i with Alui _ -> true | _ -> false in
            match opcode op with
            | None ->
                (* Div/Rem can fault: flush and store pc first. *)
                let after = comp next stop rest 0 0 0 0 in
                fun ctx ->
                  let t : Cpu.t = ctx.cpu in
                  flush t pend_s dc di pend_a;
                  t.pc <- pc;
                  let r = t.regs in
                  r.(rd) <- faulting_alu op r.(ra) (operand r imm x);
                  after ctx
            | Some o ->
                let after = comp next stop rest dc di pend_a pend_s in
                fun ctx ->
                  let r = (ctx.cpu : Cpu.t).regs in
                  r.(rd) <- eval_opc o r.(ra) (operand r imm x);
                  after ctx)
        | Mov (rd, rs) ->
            let after = comp next stop rest dc di pend_a pend_s in
            fun ctx ->
              let r = (ctx.cpu : Cpu.t).regs in
              r.(rd) <- r.(rs);
              after ctx
        | Sandbox rr ->
            let after = comp next stop rest dc di pend_a pend_s in
            fun ctx ->
              let t : Cpu.t = ctx.cpu in
              t.regs.(rr) <- Mem.sandbox t.seg t.regs.(rr);
              t.sandbox_cy <- t.sandbox_cy + own;
              after ctx
        | Ld (rd, rb, off) ->
            let da = pend_a + 1 in
            let after = comp next stop rest 0 0 0 0 in
            fun ctx ->
              let t : Cpu.t = ctx.cpu in
              flush t pend_s dc di da;
              t.pc <- pc;
              t.regs.(rd) <- Mem.load t.mem (t.regs.(rb) + off);
              after ctx
        | St (rv, rb, off) ->
            let da = pend_a + 1 in
            let after = comp next stop rest 0 0 0 0 in
            fun ctx ->
              let t : Cpu.t = ctx.cpu in
              flush t pend_s dc di da;
              t.pc <- pc;
              Mem.store t.mem (t.regs.(rb) + off) t.regs.(rv);
              after ctx
        | Push rv ->
            let da = pend_a + 1 in
            let after = comp next stop rest 0 0 0 0 in
            fun ctx ->
              let t : Cpu.t = ctx.cpu in
              flush t pend_s dc di da;
              t.pc <- pc;
              let r = t.regs in
              r.(Insn.sp) <- r.(Insn.sp) - 1;
              Mem.store t.mem r.(Insn.sp) r.(rv);
              after ctx
        | Pop rd ->
            let da = pend_a + 1 in
            let after = comp next stop rest 0 0 0 0 in
            fun ctx ->
              let t : Cpu.t = ctx.cpu in
              flush t pend_s dc di da;
              t.pc <- pc;
              let r = t.regs in
              r.(rd) <- Mem.load t.mem r.(Insn.sp);
              r.(Insn.sp) <- r.(Insn.sp) + 1;
              after ctx
        | Checkcall rr ->
            let after = comp next stop rest 0 0 0 0 in
            fun ctx ->
              let t : Cpu.t = ctx.cpu in
              flush t pend_s dc di pend_a;
              t.checkcall_cy <- t.checkcall_cy + own;
              t.pc <- pc;
              let id = t.regs.(rr) in
              if ctx.env.call_ok id then after ctx
              else raise (Cpu.Fault_exn (Cpu.Bad_call_target id))
        (* ---- conditional branch inside the window ---- *)
        | Br (c, ra, rb, target) when next < stop ->
            (* Not taken: fall through inline, costs still pending. Taken:
               flush, record the unexecuted remainder for the driver's
               poll counter, and exit early. *)
            let cmp = cond_fn c in
            let back = stop - next + rest in
            let after = comp next stop rest dc di pend_a pend_s in
            fun ctx ->
              let t : Cpu.t = ctx.cpu in
              if cmp t.regs.(ra) t.regs.(rb) then begin
                flush t pend_s dc di pend_a;
                ctx.back <- back;
                target
              end
              else after ctx
        (* ---- terminators ---- *)
        | Br (c, ra, rb, target) ->
            let cmp = cond_fn c in
            fun ctx ->
              let t : Cpu.t = ctx.cpu in
              flush t pend_s dc di pend_a;
              if cmp t.regs.(ra) t.regs.(rb) then target else next
        | Jmp target ->
            if rest = 0 then fun ctx ->
              flush ctx.cpu pend_s dc di pend_a;
              target
            else
              (* A chained loop-closing jump vanishes at compile time:
                 the next copy's first closure IS this jump's closure,
                 entered with the jump's counts still pending. *)
              copy stop rest dc di pend_a pend_s
        | Call target ->
            fun ctx ->
              let t : Cpu.t = ctx.cpu in
              flush t pend_s dc di pend_a;
              t.pc <- pc;
              Cpu.push_call t next;
              target
        | Callr rr ->
            fun ctx ->
              let t : Cpu.t = ctx.cpu in
              flush t pend_s dc di pend_a;
              t.pc <- pc;
              Cpu.push_call t next;
              t.regs.(rr)
        | Ret ->
            fun ctx ->
              let t : Cpu.t = ctx.cpu in
              flush t pend_s dc di pend_a;
              if t.depth = 0 then begin
                t.pc <- pc;
                finish ctx Cpu.Halted
              end
              else begin
                t.depth <- t.depth - 1;
                t.callstack.(t.depth)
              end
        | Kcall id ->
            fun ctx ->
              let t : Cpu.t = ctx.cpu in
              flush t pend_s dc di pend_a;
              t.pc <- pc;
              kcall ctx id t next
        | Kcallr rr ->
            fun ctx ->
              let t : Cpu.t = ctx.cpu in
              flush t pend_s dc di pend_a;
              t.pc <- pc;
              kcall ctx t.regs.(rr) t next
        | Halt ->
            fun ctx ->
              let t : Cpu.t = ctx.cpu in
              flush t pend_s dc di pend_a;
              t.pc <- pc;
              finish ctx Cpu.Halted
    (* The copy after a full one, which ended at [stop]: another full
       copy while more than a pass remains, else the first [rest]
       instructions of the body. *)
    and copy stop rest pend_c pend_i pend_a pend_s =
      let body = stop - head in
      if rest > body then
        comp head stop (rest - body) pend_c pend_i pend_a pend_s
      else comp head (head + rest) 0 pend_c pend_i pend_a pend_s
    in
    comp start stop rest 0 0 0 0
end

let compile_block = Fast_body.compile_block

(* -------------------------------------------------------------------- *)
(* Translation                                                           *)
(* -------------------------------------------------------------------- *)

(* The longest window: the abort-poll interval {!Cpu.run} defaults to, so
   a window can cover a whole default poll window. *)
let max_window = 32

(* Every slot starts as this one shared sentinel, which is never called:
   {!drive} tests a slot against it with [==] and on a match compiles the
   window and stores the result, so from the second dispatch on it runs
   what an eager translation would. No compiled closure reads a slot.
   Domains racing on a first dispatch each build an equivalent row or
   closure and store it; under OCaml 5's memory model a reader sees the
   sentinel or a fully initialised value, either is correct, so no lock
   is needed. The fusion counts of these compiles land in [scrap], which
   nothing reads ({!census} recounts the block heads). *)
let uncompiled : ctx -> int = fun _ -> invalid_arg "Jit: uncompiled slot"
let unbuilt = { slots = [||]; charge = [||]; stop = 0; head = -1 }
let scrap = ref 0

(* [pc]'s row. Its run is a straight-line self-loop when it closes with a
   [Jmp] to a head [h <= pc] whose own run ends at the same place; then
   every window length up to [max_window] exists, and a window longer
   than the rest of the pass chains whole copies of the body and a prefix
   of the last pass. Every charge is a difference of the cost prefix sum:
   a window that stays in the pass costs the prefix over it; one that
   wraps once into a body of [L] instructions costs a whole pass plus the
   prefix from [pc] to the instruction [L] before its end; and one longer
   than [L] costs a pass more than the window [L] shorter. *)
let build_row t pc =
  let stop = t.stops.(pc) in
  let head =
    match (t.source.(stop - 1) : Insn.t) with
    | Jmp h when h >= 0 && h <= pc && t.stops.(h) = stop -> h
    | _ -> -1
  in
  let own = stop - pc in
  let reach = if head >= 0 then max_window else own in
  let prefix = t.cost_prefix in
  let base = prefix.(pc) in
  let charge = Array.make (reach + 1) 0 in
  for k = 1 to own do
    charge.(k) <- prefix.(pc + k) - base
  done;
  if head >= 0 then begin
    let body = stop - head in
    let pass = prefix.(stop) - prefix.(head) in
    for k = own + 1 to body do
      charge.(k) <- pass + prefix.(pc + k - body) - base
    done;
    for k = body + 1 to reach do
      charge.(k) <- charge.(k - body) + pass
    done
  end;
  let row = { slots = Array.make (reach + 1) uncompiled; charge; stop; head } in
  t.rows.(pc) <- row;
  row

(* The window of [k] instructions from [pc]: the first [k] of its run,
   or the rest of its pass followed by [k - own] instructions of chained
   copies of the loop body (see {!compile_block}). *)
let compile_window t pc row k =
  let own = row.stop - pc in
  let f =
    if k <= own then
      compile_block t ~start:pc ~stop:(pc + k) ~head:(-1) ~rest:0
        ~fused:scrap ~elided:scrap
    else
      compile_block t ~start:pc ~stop:row.stop ~head:row.head
        ~rest:(k - own) ~fused:scrap ~elided:scrap
  in
  row.slots.(k) <- f;
  f

let translate ?(costs = Costs.default) ?safe prog =
  let source = Array.copy prog in
  let n = Array.length source in
  (* [safe.(pc)] licenses compiling the access at [pc] without fault
     handling. A map of the wrong length was derived from different
     code; ignore it rather than mis-align indices. *)
  let safe_at =
    match safe with
    | Some m when Array.length m = n -> fun pc -> Array.unsafe_get m pc
    | Some _ | None -> fun _ -> false
  in
  (* Unchecked register indexing in fast bodies is licensed by this scan;
     a program with an out-of-range register number (impossible through
     the assembler, but [translate] is a public API) runs on the
     interpreter, which raises exactly what it raises. *)
  let regs_ok = Array.for_all Insn.registers_in_range source in
  let leader = Array.make (n + 1) false in
  leader.(n) <- true;
  Array.iter
    (fun (i : Insn.t) ->
      match i with
      | Br (_, _, _, target) | Jmp target | Call target ->
          if target >= 0 && target < n then leader.(target) <- true
      | _ -> ())
    source;
  (* Walking back, a run ends after [pc] when a leader follows it or it
     is a terminator other than a conditional branch (the window exits
     early when a branch is taken, so its fall-through stays inline). *)
  let stops = Array.make n 0 in
  let run_end = ref n in
  for pc = n - 1 downto 0 do
    (match (source.(pc) : Insn.t) with
    | Br _ -> if leader.(pc + 1) then run_end := pc + 1
    | i -> if terminates i || leader.(pc + 1) then run_end := pc + 1);
    stops.(pc) <-
      (if !run_end - pc < max_window then !run_end else pc + max_window)
  done;
  let cost_prefix = Array.make (n + 1) 0 in
  for m = 0 to n - 1 do
    cost_prefix.(m + 1) <- cost_prefix.(m) + Costs.insn costs source.(m)
  done;
  {
    source;
    safe_at;
    regs_ok;
    stops;
    cost_prefix;
    rows = Array.make n unbuilt;
    shapes = Array.make n no_shape;
  }

let starts_block t pc = pc = 0 || t.stops.(pc - 1) = pc

let block_count t =
  let c = ref 0 in
  for pc = 0 to Array.length t.source - 1 do
    if starts_block t pc then incr c
  done;
  !c

(* Fusion statistics, counted on demand by compiling every block head's
   full straight-line window afresh into local counters: the same
   compilation a head's first full-length dispatch runs, so the figures
   describe what executes. Translation itself compiles nothing and no
   counter is shared, so concurrent callers cannot race; every caller
   ([vino inspect], the cache listing, the wall bench) is cold. *)
let census t =
  let fused = ref 0 and elided = ref 0 in
  if t.regs_ok then
    for pc = 0 to Array.length t.source - 1 do
      if starts_block t pc then
        ignore
          (compile_block t ~start:pc ~stop:t.stops.(pc) ~head:(-1) ~rest:0
             ~fused ~elided
            : ctx -> int)
    done;
  (!fused, !elided)

let fused_pairs t = fst (census t)
let elided_accesses t = snd (census t)

(* -------------------------------------------------------------------- *)
(* Driver                                                                *)
(* -------------------------------------------------------------------- *)

(* The non-flushing sandboxed-access superinstructions assume every
   sandboxed address is a valid memory address, which holds exactly when
   the segment is well-formed (power-of-two size, aligned base — the
   {!Mem.segment} invariant, re-checked because the record type is open)
   and lies inside memory. Checked once per run; a cpu that fails gets
   the interpreter, which is trivially exact. *)
let seg_confined (cpu : Cpu.t) =
  let { Mem.base; size } = cpu.seg in
  size > 0
  && size land (size - 1) = 0
  && base >= 0
  && base land (size - 1) = 0
  && base + size <= Mem.size cpu.mem

(* The fuel edge: the largest window length [j <= k] whose first [j - 1]
   instructions cost at most [left] cycles. [charge.(0) = 0] and
   [left >= 0], so [j >= 1]. A top-level function inlined into {!drive}:
   the shrink allocates nothing, and away from a fuel edge it costs one
   comparison. *)
let[@inline] fit (charge : int array) left k =
  let j = ref k in
  while !j > 1 && Array.unsafe_get charge (!j - 1) > left do
    decr j
  done;
  !j

(* One iteration per control transfer, replicating the interpreter's
   loop-head checks in its exact order: fuel, poll, pc bounds. [cpu.pc]
   is written only where it is observable — on every exit here, and by
   the window bodies themselves ahead of anything that can fault or call
   out. The bounds check makes the unsafe array reads safe. A top-level
   function rather than a closure so entering costs no allocation. *)
let rec drive t ctx len poll_every pc since_poll =
  let cpu = ctx.cpu in
  if cpu.Cpu.cycles > cpu.fuel then begin
    cpu.pc <- pc;
    Cpu.Out_of_fuel
  end
  else if since_poll >= poll_every then begin
    cpu.pc <- pc;
    match ctx.env.Cpu.poll () with
    | Some reason -> Cpu.Aborted reason
    | None -> drive t ctx len poll_every pc 0
  end
  else if pc < 0 || pc >= len then begin
    cpu.pc <- pc;
    Cpu.Faulted (Cpu.Bad_pc pc)
  end
  else
    let row = Array.unsafe_get t.rows pc in
    let row = if row == unbuilt then build_row t pc else row in
    let room = poll_every - since_poll in
    let reach = Array.length row.charge - 1 in
    let k =
      fit row.charge (cpu.fuel - cpu.cycles)
        (if room < reach then room else reach)
    in
    let f = Array.unsafe_get row.slots k in
    let f = if f == uncompiled then compile_window t pc row k else f in
    let pc' = f ctx in
    if ctx.fin then ctx.out
    else begin
      (* A conditional branch inside the window was taken: its last
         [ctx.back] instructions did not run. *)
      let back = ctx.back in
      ctx.back <- 0;
      drive t ctx len poll_every pc' (since_poll + k - back)
    end

(* Context recycling: invocations are the hot unit of work, so the
   driver context comes from a per-domain free stack instead of the
   minor heap. A stack, not a single slot, because kernel calls can
   re-enter [run] (graft invoking graft). Parked contexts drop their
   cpu/env so a pooled record never retains a finished machine. *)
type ctx_pool = { mutable free : ctx array; mutable n : int }

let parked_cpu =
  Cpu.make ~mem:(Mem.create 1) ~seg:(Mem.segment ~base:0 ~size:1) ()

let ctx_pool_key : ctx_pool Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { free = [||]; n = 0 })

let take_ctx pool cpu env =
  if pool.n = 0 then { cpu; env; fin = false; out = Cpu.Halted; back = 0 }
  else begin
    pool.n <- pool.n - 1;
    let c = pool.free.(pool.n) in
    c.cpu <- cpu;
    c.env <- env;
    c.fin <- false;
    c.back <- 0;
    c
  end

let give_ctx pool c =
  c.cpu <- parked_cpu;
  c.env <- Cpu.env_trusted;
  c.out <- Cpu.Halted;
  if pool.n >= Array.length pool.free then begin
    let bigger = Array.make (max 4 (2 * pool.n)) c in
    Array.blit pool.free 0 bigger 0 pool.n;
    pool.free <- bigger
  end;
  pool.free.(pool.n) <- c;
  pool.n <- pool.n + 1

let run ?(poll_every = 32) env (cpu : Cpu.t) t =
  (* Checked mode is the interpreted-extension measurement model: its
     per-access check cost is the interpretation price, so it must keep
     being interpreted. *)
  if cpu.checked || (not t.regs_ok) || not (seg_confined cpu) then
    Cpu.run ~poll_every env cpu t.source
  else begin
    let pool = Domain.DLS.get ctx_pool_key in
    let ctx = take_ctx pool cpu env in
    let out =
      match drive t ctx (Array.length t.source) poll_every cpu.pc 0 with
      | o -> o
      | exception Cpu.Fault_exn f -> Cpu.Faulted f
      | exception Mem.Fault { addr; write } ->
          Cpu.Faulted (Cpu.Memory_fault { addr; write })
    in
    give_ctx pool ctx;
    out
  end
