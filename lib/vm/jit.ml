(* Closure-threaded translation of graft programs.

   The interpreter ({!Cpu.run}) pays a constructor match, a cost-table
   lookup, a fuel check and a poll check on every instruction. Here all
   of that is paid once per compiled segment:

   - the program is split into basic blocks (leaders: pc 0, every
     branch/jump/call target, every instruction after a terminator);
   - each block's total cycle cost and instruction count are computed
     statically from the cost table;
   - every instruction is compiled to a pre-resolved closure; the block
     body is the chain of those closures (direct threading);
   - hot superinstruction pairs are fused ([Sandbox]+[Ld]/[St] — the
     MiSFIT access sequence — plus [Li]+[Alu(i)] and [Alu(i)]+[Br]);
   - the fuel and abort-poll checks run once per block, not once per
     instruction.

   {!translate} does only the O(n) part, at link time: leaders, the
   static cost/length tables and the per-instruction slow closures.
   Every compiled segment's slot starts as the shared {!uncompiled}
   sentinel; {!drive} compiles a slot the first time it dispatches
   through it and stores the result, so a graft pays to compile only
   the code it runs.

   Equivalence with the interpreter is maintained exactly; the argument
   (DESIGN.md §11) rests on two mechanisms:

   Fast-path entry conditions. A block body runs only when
   [cycles + cost <= fuel] (no intermediate instruction could have seen
   [cycles > fuel], because cycles grow monotonically by partial sums of
   [cost]) and [since_poll + len <= poll_every] (no intermediate
   instruction could have reached a poll point). Within the body,
   instructions that cannot fault or observe the machine accumulate
   their cycle/instruction counts statically; any instruction that can
   fault, stop, or hand the cpu to kernel code (memory access, Div/Rem,
   Checkcall, Kcall, every terminator) first flushes the accumulated
   counts and stores its own pc, so the architectural state at every
   observable point — fault, abort, kernel call — is exactly what the
   interpreter would expose.

   Careful path. When an entry condition fails, or when execution
   resumes mid-block (the wrapper refuels and re-enters at an arbitrary
   pc), the driver executes per-instruction slow closures with the
   interpreter's exact per-instruction semantics (and no fusion) until
   control reaches a block head again. The driver itself re-checks fuel,
   poll and pc bounds in the interpreter's order before every step. *)

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
  (* Blocks extend through a not-taken conditional branch; when a branch
     inside a body is taken, the body exits early and records here how
     many of the block's instructions it did NOT execute, so the driver
     can correct its poll-counter bookkeeping. Zero otherwise. *)
  mutable back : int;
}

let finish ctx o =
  ctx.fin <- true;
  ctx.out <- o;
  0

type t = {
  source : Insn.t array;
  nblocks : int;
  (* What {!census} recompiles to count fusions on demand: the cost
     table, the proof map and every block head with a compiled tail, as
     [(start, stop)]. *)
  costs : Costs.t;
  safe_at : int -> bool;
  heads : (int * int) list;
  (* Per-pc tails: [body_of_pc.(pc)] executes from [pc] to the end of
     its basic block, charging [cost_of_pc.(pc)] cycles over
     [len_of_pc.(pc)] instructions. Every suffix (not just block heads)
     has a tail, which keeps execution on the fast path when a slice or
     an abort poll resumes mid-block. Like every compiled slot below, a
     tail holds {!uncompiled} until {!drive} first dispatches through
     it. *)
  body_of_pc : (ctx -> int) array;
  cost_of_pc : int array;
  len_of_pc : int array;
  (* Cycle cost of instructions [0, pc): a straight run [lo, hi) costs
     [cost_prefix.(hi) - cost_prefix.(lo)]. *)
  cost_prefix : int array;
  (* Power-of-two compiled prefixes of the same tails: [grade_body.(j)]
     holds the prefix of length [2^j], present when strictly shorter
     than the full tail ([len_of_pc]) and costed from [cost_prefix].
     When the full tail cannot fit the remaining poll window or fuel,
     the driver takes the longest grade that fits; because every length
     down to one instruction is available, any remainder decomposes
     exactly into compiled segments — a loop out of phase with the poll
     grid never falls back to slow stepping, it just lands on the poll
     point through a couple of shorter compiled hops. *)
  grade_body : (ctx -> int) array array;
  (* Unrolled self-loops: when the tail at [pc] ends with a [Jmp] back
     to a head [h <= pc] whose own tail is the full loop body (a
     straight-line loop), [exact_body.(pc).(room)] consumes the
     remaining poll window — all [room] instructions — in a single
     dispatch: it finishes the current pass, chains whole compiled
     copies of the body (each copy's final jump falls directly into the
     next copy's first closure), and ends with a compiled prefix of the
     next pass cut at exactly the window boundary. The pending
     cycle/insn/access counts thread across the copies, so the whole
     window flushes once, at its end. One driver dispatch per poll
     window, from any loop phase, with no division and no
     remainder hops. [exact_cost.(pc).(room)] is the cycle charge of
     that chain (from [cost_prefix]), checked against the fuel budget
     before dispatch (an under-fuelled window degrades to the graded
     path, which meters fuel per hop). A zero-length array marks a
     non-loop pc; an early exit reports its not-run remainder through
     [ctx.back] like any inline branch. One-instruction loops ([spin:
     Jmp spin]) are included: a runaway graft spends its whole budget in
     one, and a window turns its one dispatch per jump into one per
     poll. *)
  exact_body : (ctx -> int) array array;
  exact_cost : int array array;
  slow : (ctx -> int) array;
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
(* Fast path: block bodies                                               *)
(* -------------------------------------------------------------------- *)

(* A recognized access-group superinstruction. Two cores qualify:
   - confined: the access reads or writes the register the preceding
     [Sandbox] just confined, at offset 0 — the only address shapes
     MiSFIT emits — so when the segment lies inside memory the access
     cannot fault;
   - bare: a proof-elided access ([safe_at]), non-faulting by carried
     certificate, at any base/offset.
   Either way the whole group compiles as one straight-line,
   non-flushing closure. An ALU op forming the address before the group
   and an ALU op after it (consuming a load's datum, or the loop
   bookkeeping after a store) fuse into the same closure. *)
type confined = {
  c_pre : (int * int * int * int * bool) option;
      (* (opcode, rd, ra, operand, operand_is_immediate) *)
  c_sb : int;  (* pc of the Sandbox, for its cycle attribution;
                  -1 for a bare (proof-elided) core *)
  c_dst : int;  (* register receiving the sandboxed address *)
  c_src : int;  (* register holding the raw address (confined) or the
                  access base register (bare) *)
  c_off : int;  (* access offset: 0 for confined cores, any for bare *)
  c_acc : int;  (* pc of the Ld/St *)
  c_tail : (int * int * int * int * bool) option;
  c_stop : int;  (* first pc after the group *)
}


let alu_parts : Insn.t -> (int * int * int * int * bool) option
    = function
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
    (* A proof-elided access needs no sandbox: the bare [Ld]/[St] itself
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

(* Compile instructions [start, stop) into one closure chain. [pend_c] /
   [pend_i] / [pend_a] are cycles/instructions/memory-accesses executed
   since the last flush; they are added to the cpu before anything that
   can fault, stop or observe it, together with that instruction's own
   charge (the interpreter charges an instruction before executing it).
   [safe_at pc] holds when a carried verification proof guarantees the
   access at [pc] cannot fault: such a [Ld]/[St] is compiled like any
   other non-faulting straight-line instruction — no flush, no pc store —
   and its access count joins the pending accumulator. *)
(* Fast bodies index the register file with compile-time register
   numbers that [translate] validates up front (a program that fails
   validation gets slow closures, bar the exact windows of a lone
   self-jump, which names no register — see [regs_ok] there), and the
   program array with indices guarded by [stop <= Array.length prog],
   so indexing inside [compile_block] is unchecked: the [Array] shadow
   is scoped to this submodule. The slow path and everything else keep
   checked indexing. *)
module Fast_body = struct
  module Array = struct
    include Stdlib.Array

    external get : 'a array -> int -> 'a = "%array_unsafe_get"
    external set : 'a array -> int -> 'a -> unit = "%array_unsafe_set"
  end

  let compile_block ~costs ~safe_at ?chain ?(extra_back = 0)
      ?(pend0 = (0, 0, 0, 0)) prog ~start ~stop ~fused ~elided =
  (* [chain] turns this block into one copy of an unrolled self-loop:
     the block-final [Jmp] (whose target is [start] by construction at
     the call site) falls straight into the next copy's first closure
     instead of handing the target back to the driver. It is a
     compile-time continuation: invoked once, during compilation, with
     the pending cycle/insn/access/sandbox counts accumulated up to and
     including the jump, and expected to return the next copy compiled
     with those counts as its [pend0] — so a whole unrolled window
     flushes once, at its final flush point, instead of once per copy.
     Anything observable inside a copy (a fault, a kcall, a taken
     branch) still flushes the carried pends first, exactly as within a
     single block. [extra_back] is the instruction count of the copies
     that follow, added to an inline branch's not-run remainder so the
     driver's poll arithmetic covers the whole unrolled sequence. *)
  let cost_of pc = Costs.insn costs prog.(pc) in
  let rec comp pc pend_c pend_i pend_a pend_s : ctx -> int =
    if pc >= stop then
      fun ctx ->
        let t : Cpu.t = ctx.cpu in
        if pend_s <> 0 then t.sandbox_cy <- t.sandbox_cy + pend_s;
        t.cycles <- t.cycles + pend_c;
        t.insns <- t.insns + pend_i;
        t.accesses <- t.accesses + pend_a;
        pc
    else
      let own = cost_of pc in
      let next = pc + 1 in
      match (prog.(pc) : Insn.t) with
      (* ---- fused superinstructions ---- *)
      | Br (bc, bra, brb, btarget)
        when next < stop
             && (match confined_at prog ~safe_at ~stop next with
                | Some g1 -> (
                    g1.c_stop < stop - 1
                    &&
                    match confined_at prog ~safe_at ~stop g1.c_stop with
                    | Some g2 -> (
                        g2.c_stop = stop - 1
                        &&
                        match prog.(g2.c_stop) with
                        | Jmp _ -> true
                        | _ -> false)
                    | None -> false)
                | None -> false) -> (
          (* The complete rhythm of a transform loop — guard branch, two
             access groups (load side, store side), loop-closing jump —
             as one closure. Both groups are non-faulting (confined or
             proof-elided, see {!confined_at}), so nothing between the
             branch test and the jump's flush can observe the machine:
             one flush at the jump covers the whole pass. The taken
             branch exits early exactly like an inline [Br]. *)
          let g1 = Option.get (confined_at prog ~safe_at ~stop next) in
          let g2 = Option.get (confined_at prog ~safe_at ~stop g1.c_stop) in
          let jpc = g2.c_stop in
          let jtarget =
            match (prog.(jpc) : Insn.t) with
            | Jmp target -> target
            | _ -> assert false
          in
          fused := !fused + (stop - pc - 1);
          if g1.c_sb < 0 then incr elided;
          if g2.c_sb < 0 then incr elided;
          let seg_cost lo hi =
            let c = ref 0 in
            for m = lo to hi - 1 do
              c := !c + cost_of m
            done;
            !c
          in
          let cmp = cond_fn bc in
          let dc_br = pend_c + own
          and di_br = pend_i + 1
          and da_br = pend_a in
          let back = stop - next + extra_back in
          let sb1 = if g1.c_sb < 0 then 0 else cost_of g1.c_sb in
          let sb2 = if g2.c_sb < 0 then 0 else cost_of g2.c_sb in
          let dc = pend_c + seg_cost pc stop
          and di = pend_i + (stop - pc)
          and da = pend_a + 2 in
          let ps = pend_s + sb1 + sb2 in
          let part (g : confined) =
            let pre_o, pre_d, pre_a, pre_x, pre_imm =
              match g.c_pre with
              | Some (f, d, a, x, im) -> (f, d, a, x, im)
              | None -> (-1, 0, 0, 0, false)
            in
            let tl_o, tl_d, tl_a, tl_x, tl_imm =
              match g.c_tail with
              | Some (f, d, a, x, im) -> (f, d, a, x, im)
              | None -> (-1, 0, 0, 0, false)
            in
            let is_ld, rw =
              match (prog.(g.c_acc) : Insn.t) with
              | Ld (rd, _, _) -> (true, rd)
              | St (rv, _, _) -> (false, rv)
              | _ -> assert false
            in
            ( pre_o, pre_d, pre_a, pre_x, pre_imm, g.c_sb >= 0, is_ld, rw,
              g.c_dst, g.c_src, g.c_off, tl_o, tl_d, tl_a, tl_x, tl_imm )
          in
          let ( p1o, p1d, p1a, p1x, p1i, p1sb, p1ld, p1rw, p1dst, p1src,
                p1off, q1o, q1d, q1a, q1x, q1i ) =
            part g1
          in
          let ( p2o, p2d, p2a, p2x, p2i, p2sb, p2ld, p2rw, p2dst, p2src,
                p2off, q2o, q2d, q2a, q2x, q2i ) =
            part g2
          in
          let effects ctx =
            let t : Cpu.t = ctx.cpu in
            let r = t.regs in
            if p1o >= 0 then
              r.(p1d) <- eval_opc p1o r.(p1a) (if p1i then p1x else r.(p1x));
            if p1sb then begin
              let x = Mem.sandbox t.seg r.(p1src) in
              r.(p1dst) <- x;
              if p1ld then r.(p1rw) <- Mem.unsafe_load t.mem x
              else Mem.unsafe_store t.mem x r.(p1rw)
            end
            else if p1ld then r.(p1rw) <- Mem.load t.mem (r.(p1src) + p1off)
            else Mem.store t.mem (r.(p1src) + p1off) r.(p1rw);
            if q1o >= 0 then
              r.(q1d) <- eval_opc q1o r.(q1a) (if q1i then q1x else r.(q1x));
            if p2o >= 0 then
              r.(p2d) <- eval_opc p2o r.(p2a) (if p2i then p2x else r.(p2x));
            if p2sb then begin
              let x = Mem.sandbox t.seg r.(p2src) in
              r.(p2dst) <- x;
              if p2ld then r.(p2rw) <- Mem.unsafe_load t.mem x
              else Mem.unsafe_store t.mem x r.(p2rw)
            end
            else if p2ld then r.(p2rw) <- Mem.load t.mem (r.(p2src) + p2off)
            else Mem.store t.mem (r.(p2src) + p2off) r.(p2rw);
            if q2o >= 0 then
              r.(q2d) <- eval_opc q2o r.(q2a) (if q2i then q2x else r.(q2x))
          in
          let taken ctx =
            let t : Cpu.t = ctx.cpu in
            if pend_s <> 0 then t.sandbox_cy <- t.sandbox_cy + pend_s;
            t.cycles <- t.cycles + dc_br;
            t.insns <- t.insns + di_br;
            t.accesses <- t.accesses + da_br;
            ctx.back <- back;
            btarget
          in
          match chain with
          | None ->
              fun ctx ->
                let t : Cpu.t = ctx.cpu in
                if cmp t.regs.(bra) t.regs.(brb) then taken ctx
                else begin
                  effects ctx;
                  if ps <> 0 then t.sandbox_cy <- t.sandbox_cy + ps;
                  t.cycles <- t.cycles + dc;
                  t.insns <- t.insns + di;
                  t.accesses <- t.accesses + da;
                  jtarget
                end
          | Some kont ->
              (* The whole pass's counts ride into the next copy's
                 pending accumulators: nothing between here and the
                 chain's next flush point can observe the machine. *)
              let g = kont dc di da ps in
              (* The canonical transform-loop pass — [Ge] guard on the
                 index, address = base + index on both sides, a datum
                 op after the load, the index advance after the store —
                 is the shape this arm exists for, so it gets a fully
                 specialized closure: every shape test and opcode
                 below is resolved here, at build time. The register
                 writes are identical to [effects]'s, in the same
                 order. *)
              let canon =
                (match bc with Ge -> true | _ -> false)
                && p1o = 0 && (not p1i) && p1ld && q1o >= 0
                && p2o = 0 && (not p2i) && (not p2ld)
                && q2o = 0 && q2i
              in
              if canon && p1sb && p2sb then
                fun ctx ->
                  let t : Cpu.t = ctx.cpu in
                  let r = t.regs in
                  if r.(bra) >= r.(brb) then taken ctx
                  else begin
                    r.(p1d) <- r.(p1a) + r.(p1x);
                    let x = Mem.sandbox t.seg r.(p1src) in
                    r.(p1dst) <- x;
                    r.(p1rw) <- Mem.unsafe_load t.mem x;
                    r.(q1d) <-
                      eval_opc q1o r.(q1a) (if q1i then q1x else r.(q1x));
                    r.(p2d) <- r.(p2a) + r.(p2x);
                    let x2 = Mem.sandbox t.seg r.(p2src) in
                    r.(p2dst) <- x2;
                    Mem.unsafe_store t.mem x2 r.(p2rw);
                    r.(q2d) <- r.(q2a) + q2x;
                    g ctx
                  end
              else if canon && (not p1sb) && not p2sb then
                fun ctx ->
                  let t : Cpu.t = ctx.cpu in
                  let r = t.regs in
                  if r.(bra) >= r.(brb) then taken ctx
                  else begin
                    r.(p1d) <- r.(p1a) + r.(p1x);
                    r.(p1rw) <- Mem.load t.mem (r.(p1src) + p1off);
                    r.(q1d) <-
                      eval_opc q1o r.(q1a) (if q1i then q1x else r.(q1x));
                    r.(p2d) <- r.(p2a) + r.(p2x);
                    Mem.store t.mem (r.(p2src) + p2off) r.(p2rw);
                    r.(q2d) <- r.(q2a) + q2x;
                    g ctx
                  end
              else
                fun ctx ->
                  let t : Cpu.t = ctx.cpu in
                  if cmp t.regs.(bra) t.regs.(brb) then taken ctx
                  else begin
                    effects ctx;
                    g ctx
                  end)
      | (Alu _ | Alui _ | Mov _ | Sandbox _ | Ld _ | St _)
        when Option.is_some (confined_at prog ~safe_at ~stop pc) -> (
          (* An access-group superinstruction (see {!confined_at}): the
             accessed address is the just-sandboxed register at offset 0,
             so it is inside the segment by construction — or the access
             carries a proof making it non-faulting outright (bare core).
             The driver only takes the fast path when the segment lies
             inside memory ({!seg_confined}), so the access cannot fault
             — no flush, no pc store; every count joins the pending
             accumulator like any straight-line instruction. [sandbox_cy]
             joins a fourth pending accumulator ([pend_s]) dumped at the
             next flush point — the earliest the interpreter's value is
             observable, by which time it includes this charge either
             way. The optional address-forming prelude and trailing ALU
             ops ride along: they are non-faulting and sequenced exactly
             as the interpreter would, so the whole compute/sandbox/
             access/consume rhythm of a MiSFIT (or verified) loop body is
             one closure. *)
          match confined_at prog ~safe_at ~stop pc with
          | None -> assert false
          | Some c ->
              let count = c.c_stop - pc in
              fused := !fused + (count - 1);
              if c.c_sb < 0 then incr elided;
              let cost = ref 0 in
              for m = pc to c.c_stop - 1 do
                cost := !cost + cost_of m
              done;
              let sb = if c.c_sb < 0 then 0 else cost_of c.c_sb in
              let pend_c = pend_c + !cost
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
                 the flush it would perform moves into the confined
                 closure, which then hands the branch target straight
                 back to the driver — one closure for the whole
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
                  let after = comp c.c_stop pend_c pend_i pend_a ps in
                  fun ctx ->
                    let t : Cpu.t = ctx.cpu in
                    let r = t.regs in
                    if has_pre then
                      r.(d1) <- eval_opc o1 r.(a1) (if imm1 then x1 else r.(x1));
                    let x = Mem.sandbox t.seg r.(src) in
                    r.(dst) <- x;
                    r.(rd) <- Mem.unsafe_load t.mem x;
                    if has_tail then
                      r.(d2) <- eval_opc o2 r.(a2) (if imm2 then x2 else r.(x2));
                    after ctx
              | St (rv, _, _), None when not bare ->
                  let after = comp c.c_stop pend_c pend_i pend_a ps in
                  fun ctx ->
                    let t : Cpu.t = ctx.cpu in
                    let r = t.regs in
                    if has_pre then
                      r.(d1) <- eval_opc o1 r.(a1) (if imm1 then x1 else r.(x1));
                    let x = Mem.sandbox t.seg r.(src) in
                    r.(dst) <- x;
                    Mem.unsafe_store t.mem x r.(rv);
                    if has_tail then
                      r.(d2) <- eval_opc o2 r.(a2) (if imm2 then x2 else r.(x2));
                    after ctx
              | Ld (rd, _, _), None ->
                  let after = comp c.c_stop pend_c pend_i pend_a ps in
                  fun ctx ->
                    let t : Cpu.t = ctx.cpu in
                    let r = t.regs in
                    if has_pre then
                      r.(d1) <- eval_opc o1 r.(a1) (if imm1 then x1 else r.(x1));
                    r.(rd) <- Mem.load t.mem (r.(src) + off);
                    if has_tail then
                      r.(d2) <- eval_opc o2 r.(a2) (if imm2 then x2 else r.(x2));
                    after ctx
              | St (rv, _, _), None ->
                  let after = comp c.c_stop pend_c pend_i pend_a ps in
                  fun ctx ->
                    let t : Cpu.t = ctx.cpu in
                    let r = t.regs in
                    if has_pre then
                      r.(d1) <- eval_opc o1 r.(a1) (if imm1 then x1 else r.(x1));
                    Mem.store t.mem (r.(src) + off) r.(rv);
                    if has_tail then
                      r.(d2) <- eval_opc o2 r.(a2) (if imm2 then x2 else r.(x2));
                    after ctx
              | Ld (rd, _, _), Some target ->
                  incr fused;
                  let dc = pend_c + cost_of c.c_stop
                  and di = pend_i + 1
                  and da = pend_a in
                  let effects ctx =
                    let t : Cpu.t = ctx.cpu in
                    let r = t.regs in
                    if has_pre then
                      r.(d1) <- eval_opc o1 r.(a1) (if imm1 then x1 else r.(x1));
                    if bare then r.(rd) <- Mem.load t.mem (r.(src) + off)
                    else begin
                      let x = Mem.sandbox t.seg r.(src) in
                      r.(dst) <- x;
                      r.(rd) <- Mem.unsafe_load t.mem x
                    end;
                    if has_tail then
                      r.(d2) <- eval_opc o2 r.(a2) (if imm2 then x2 else r.(x2))
                  in
                  (match chain with
                  | None ->
                      fun ctx ->
                        effects ctx;
                        let t : Cpu.t = ctx.cpu in
                        if ps <> 0 then t.sandbox_cy <- t.sandbox_cy + ps;
                        t.cycles <- t.cycles + dc;
                        t.insns <- t.insns + di;
                        t.accesses <- t.accesses + da;
                        target
                  | Some kont ->
                      let g = kont dc di da ps in
                      fun ctx ->
                        effects ctx;
                        g ctx)
              | St (rv, _, _), Some target ->
                  incr fused;
                  let dc = pend_c + cost_of c.c_stop
                  and di = pend_i + 1
                  and da = pend_a in
                  let effects ctx =
                    let t : Cpu.t = ctx.cpu in
                    let r = t.regs in
                    if has_pre then
                      r.(d1) <- eval_opc o1 r.(a1) (if imm1 then x1 else r.(x1));
                    if bare then Mem.store t.mem (r.(src) + off) r.(rv)
                    else begin
                      let x = Mem.sandbox t.seg r.(src) in
                      r.(dst) <- x;
                      Mem.unsafe_store t.mem x r.(rv)
                    end;
                    if has_tail then
                      r.(d2) <- eval_opc o2 r.(a2) (if imm2 then x2 else r.(x2))
                  in
                  (match chain with
                  | None ->
                      fun ctx ->
                        effects ctx;
                        let t : Cpu.t = ctx.cpu in
                        if ps <> 0 then t.sandbox_cy <- t.sandbox_cy + ps;
                        t.cycles <- t.cycles + dc;
                        t.insns <- t.insns + di;
                        t.accesses <- t.accesses + da;
                        target
                  | Some kont ->
                      let g = kont dc di da ps in
                      fun ctx ->
                        effects ctx;
                        g ctx)
              | _ -> assert false)
      | Mov (ra, rs)
        when pc + 2 < stop
             && (match (prog.(next), prog.(pc + 2)) with
                | Sandbox a, (Ld (_, b, _) | St (_, b, _)) ->
                    a = ra && b = ra
                | _ -> false) -> (
          (* The full MiSFIT access sequence:
             [Mov a,s; Sandbox a; Ld/St _,a,off]. The raw address is
             visible in [a] only between the first two instructions,
             where nothing can observe it, so the three collapse into
             sandbox-then-access. *)
          fused := !fused + 2;
          let sb = cost_of next in
          let dc = pend_c + own + sb + cost_of (pc + 2)
          and di = pend_i + 3
          and da = pend_a + 1 in
          let acc_pc = pc + 2 in
          let after = comp (pc + 3) 0 0 0 0 in
          match (prog.(acc_pc) : Insn.t) with
          | Ld (rd, _, off) ->
              fun ctx ->
                let t : Cpu.t = ctx.cpu in
                let r = t.regs in
                let x = Mem.sandbox t.seg r.(rs) in
                r.(ra) <- x;
                t.sandbox_cy <- t.sandbox_cy + sb;
                if pend_s <> 0 then
                  t.sandbox_cy <- t.sandbox_cy + pend_s;
                t.cycles <- t.cycles + dc;
                t.insns <- t.insns + di;
                t.pc <- acc_pc;
                t.accesses <- t.accesses + da;
                r.(rd) <- Mem.load t.mem (x + off);
                after ctx
          | St (rv, _, off) ->
              fun ctx ->
                let t : Cpu.t = ctx.cpu in
                let r = t.regs in
                let x = Mem.sandbox t.seg r.(rs) in
                r.(ra) <- x;
                t.sandbox_cy <- t.sandbox_cy + sb;
                if pend_s <> 0 then
                  t.sandbox_cy <- t.sandbox_cy + pend_s;
                t.cycles <- t.cycles + dc;
                t.insns <- t.insns + di;
                t.pc <- acc_pc;
                t.accesses <- t.accesses + da;
                Mem.store t.mem (x + off) r.(rv);
                after ctx
          | _ -> assert false)
      | Sandbox rs
        when next < stop
             && (match prog.(next) with
                | Ld _ | St _ -> true
                | _ -> false) -> (
          incr fused;
          let dc = pend_c + own + cost_of next
          and di = pend_i + 2
          and da = pend_a + 1 in
          let after = comp (pc + 2) 0 0 0 0 in
          match (prog.(next) : Insn.t) with
          | Ld (rd, rb, off) ->
              fun ctx ->
                let t : Cpu.t = ctx.cpu in
                let r = t.regs in
                r.(rs) <- Mem.sandbox t.seg r.(rs);
                t.sandbox_cy <- t.sandbox_cy + own;
                if pend_s <> 0 then
                  t.sandbox_cy <- t.sandbox_cy + pend_s;
                t.cycles <- t.cycles + dc;
                t.insns <- t.insns + di;
                t.pc <- next;
                t.accesses <- t.accesses + da;
                r.(rd) <- Mem.load t.mem (r.(rb) + off);
                after ctx
          | St (rv, rb, off) ->
              fun ctx ->
                let t : Cpu.t = ctx.cpu in
                let r = t.regs in
                r.(rs) <- Mem.sandbox t.seg r.(rs);
                t.sandbox_cy <- t.sandbox_cy + own;
                if pend_s <> 0 then
                  t.sandbox_cy <- t.sandbox_cy + pend_s;
                t.cycles <- t.cycles + dc;
                t.insns <- t.insns + di;
                t.pc <- next;
                t.accesses <- t.accesses + da;
                Mem.store t.mem (r.(rb) + off) r.(rv);
                after ctx
          | _ -> assert false)
      (* A proof-elided access followed by a non-faulting ALU op: both are
         straight-line, so they fuse like [Li]+[Alu]. *)
      | Ld (rd, rb, off)
        when safe_at pc
             && next < stop
             && (match prog.(next) with
                | Alu (op, _, _, _) | Alui (op, _, _, _) ->
                    opcode op <> None
                | _ -> false) -> (
          incr fused;
          incr elided;
          let pend_c = pend_c + own + cost_of next
          and pend_i = pend_i + 2
          and pend_a = pend_a + 1 in
          match (prog.(next) : Insn.t) with
          | Alu (op, d2, a2, b2) ->
              let o = Option.get (opcode op) in
              let after = comp (pc + 2) pend_c pend_i pend_a pend_s in
              fun ctx ->
                let t : Cpu.t = ctx.cpu in
                let r = t.regs in
                r.(rd) <- Mem.load t.mem (r.(rb) + off);
                r.(d2) <- eval_opc o r.(a2) r.(b2);
                after ctx
          | Alui (op, d2, a2, i2) ->
              let o = Option.get (opcode op) in
              let after = comp (pc + 2) pend_c pend_i pend_a pend_s in
              fun ctx ->
                let t : Cpu.t = ctx.cpu in
                let r = t.regs in
                r.(rd) <- Mem.load t.mem (r.(rb) + off);
                r.(d2) <- eval_opc o r.(a2) i2;
                after ctx
          | _ -> assert false)
      | Li (rd, v)
        when next < stop
             && (match prog.(next) with
                | Alu (op, _, _, _) | Alui (op, _, _, _) ->
                    opcode op <> None
                | _ -> false) -> (
          incr fused;
          let pend_c = pend_c + own + cost_of next
          and pend_i = pend_i + 2 in
          match (prog.(next) : Insn.t) with
          | Alu (op, d2, a2, b2) ->
              let o = Option.get (opcode op) in
              let after = comp (pc + 2) pend_c pend_i pend_a pend_s in
              fun ctx ->
                let r = (ctx.cpu : Cpu.t).regs in
                r.(rd) <- v;
                r.(d2) <- eval_opc o r.(a2) r.(b2);
                after ctx
          | Alui (op, d2, a2, imm) ->
              let o = Option.get (opcode op) in
              let after = comp (pc + 2) pend_c pend_i pend_a pend_s in
              fun ctx ->
                let r = (ctx.cpu : Cpu.t).regs in
                r.(rd) <- v;
                r.(d2) <- eval_opc o r.(a2) imm;
                after ctx
          | _ -> assert false)
      | Li (rd, v)
        when next < stop
             && (match prog.(next) with Br _ -> true | _ -> false)
             && pc + 2 >= stop -> (
          match (prog.(next) : Insn.t) with
          | Br (c, ba, bb, target) ->
              incr fused;
              let cmp = cond_fn c in
              let dc = pend_c + own + cost_of next
              and di = pend_i + 2
              and da = pend_a in
              let fall = pc + 2 in
              fun ctx ->
                let t : Cpu.t = ctx.cpu in
                let r = t.regs in
                r.(rd) <- v;
                if pend_s <> 0 then
                  t.sandbox_cy <- t.sandbox_cy + pend_s;
                t.cycles <- t.cycles + dc;
                t.insns <- t.insns + di;
                t.accesses <- t.accesses + da;
                if cmp r.(ba) r.(bb) then target else fall
          | _ -> assert false)
      | Alu (op, rd, ra, rb)
        when opcode op <> None
             && next < stop
             && (match prog.(next) with Br _ -> true | _ -> false)
             && pc + 2 >= stop -> (
          match (prog.(next) : Insn.t) with
          | Br (c, ba, bb, target) ->
              incr fused;
              let o = Option.get (opcode op) in
              let cmp = cond_fn c in
              let dc = pend_c + own + cost_of next
              and di = pend_i + 2
              and da = pend_a in
              let fall = pc + 2 in
              fun ctx ->
                let t : Cpu.t = ctx.cpu in
                let r = t.regs in
                r.(rd) <- eval_opc o r.(ra) r.(rb);
                if pend_s <> 0 then
                  t.sandbox_cy <- t.sandbox_cy + pend_s;
                t.cycles <- t.cycles + dc;
                t.insns <- t.insns + di;
                t.accesses <- t.accesses + da;
                if cmp r.(ba) r.(bb) then target else fall
          | _ -> assert false)
      | Alui (op, rd, ra, imm)
        when opcode op <> None
             && next < stop
             && (match prog.(next) with Br _ -> true | _ -> false)
             && pc + 2 >= stop -> (
          match (prog.(next) : Insn.t) with
          | Br (c, ba, bb, target) ->
              incr fused;
              let o = Option.get (opcode op) in
              let cmp = cond_fn c in
              let dc = pend_c + own + cost_of next
              and di = pend_i + 2
              and da = pend_a in
              let fall = pc + 2 in
              fun ctx ->
                let t : Cpu.t = ctx.cpu in
                let r = t.regs in
                r.(rd) <- eval_opc o r.(ra) imm;
                if pend_s <> 0 then
                  t.sandbox_cy <- t.sandbox_cy + pend_s;
                t.cycles <- t.cycles + dc;
                t.insns <- t.insns + di;
                t.accesses <- t.accesses + da;
                if cmp r.(ba) r.(bb) then target else fall
          | _ -> assert false)
      | Alu (op, rd, ra, rb)
        when opcode op <> None
             && next < stop
             && (match prog.(next) with Jmp _ -> true | _ -> false) -> (
          match (prog.(next) : Insn.t) with
          | Jmp target ->
              incr fused;
              let o = Option.get (opcode op) in
              let dc = pend_c + own + cost_of next
              and di = pend_i + 2
              and da = pend_a in
              (match chain with
              | None ->
                  fun ctx ->
                    let t : Cpu.t = ctx.cpu in
                    let r = t.regs in
                    r.(rd) <- eval_opc o r.(ra) r.(rb);
                    if pend_s <> 0 then
                      t.sandbox_cy <- t.sandbox_cy + pend_s;
                    t.cycles <- t.cycles + dc;
                    t.insns <- t.insns + di;
                    t.accesses <- t.accesses + da;
                    target
              | Some kont ->
                  let g = kont dc di da pend_s in
                  fun ctx ->
                    let r = (ctx.cpu : Cpu.t).regs in
                    r.(rd) <- eval_opc o r.(ra) r.(rb);
                    g ctx)
          | _ -> assert false)
      | Alui (op, rd, ra, imm)
        when opcode op <> None
             && next < stop
             && (match prog.(next) with Jmp _ -> true | _ -> false) -> (
          match (prog.(next) : Insn.t) with
          | Jmp target ->
              incr fused;
              let o = Option.get (opcode op) in
              let dc = pend_c + own + cost_of next
              and di = pend_i + 2
              and da = pend_a in
              (match chain with
              | None ->
                  fun ctx ->
                    let t : Cpu.t = ctx.cpu in
                    let r = t.regs in
                    r.(rd) <- eval_opc o r.(ra) imm;
                    if pend_s <> 0 then
                      t.sandbox_cy <- t.sandbox_cy + pend_s;
                    t.cycles <- t.cycles + dc;
                    t.insns <- t.insns + di;
                    t.accesses <- t.accesses + da;
                    target
              | Some kont ->
                  let g = kont dc di da pend_s in
                  fun ctx ->
                    let r = (ctx.cpu : Cpu.t).regs in
                    r.(rd) <- eval_opc o r.(ra) imm;
                    g ctx)
          | _ -> assert false)
      | Alu (op1, d1, a1, b1)
        when opcode op1 <> None
             && next < stop
             && (match prog.(next) with
                | Alu (op2, _, _, _) | Alui (op2, _, _, _) ->
                    opcode op2 <> None
                | _ -> false) -> (
          incr fused;
          let o1 = Option.get (opcode op1) in
          let pend_c = pend_c + own + cost_of next
          and pend_i = pend_i + 2 in
          match (prog.(next) : Insn.t) with
          | Alu (op2, d2, a2, b2) ->
              let o2 = Option.get (opcode op2) in
              let after = comp (pc + 2) pend_c pend_i pend_a pend_s in
              fun ctx ->
                let r = (ctx.cpu : Cpu.t).regs in
                r.(d1) <- eval_opc o1 r.(a1) r.(b1);
                r.(d2) <- eval_opc o2 r.(a2) r.(b2);
                after ctx
          | Alui (op2, d2, a2, i2) ->
              let o2 = Option.get (opcode op2) in
              let after = comp (pc + 2) pend_c pend_i pend_a pend_s in
              fun ctx ->
                let r = (ctx.cpu : Cpu.t).regs in
                r.(d1) <- eval_opc o1 r.(a1) r.(b1);
                r.(d2) <- eval_opc o2 r.(a2) i2;
                after ctx
          | _ -> assert false)
      | Alui (op1, d1, a1, i1)
        when opcode op1 <> None
             && next < stop
             && (match prog.(next) with
                | Alu (op2, _, _, _) | Alui (op2, _, _, _) ->
                    opcode op2 <> None
                | _ -> false) -> (
          incr fused;
          let o1 = Option.get (opcode op1) in
          let pend_c = pend_c + own + cost_of next
          and pend_i = pend_i + 2 in
          match (prog.(next) : Insn.t) with
          | Alu (op2, d2, a2, b2) ->
              let o2 = Option.get (opcode op2) in
              let after = comp (pc + 2) pend_c pend_i pend_a pend_s in
              fun ctx ->
                let r = (ctx.cpu : Cpu.t).regs in
                r.(d1) <- eval_opc o1 r.(a1) i1;
                r.(d2) <- eval_opc o2 r.(a2) r.(b2);
                after ctx
          | Alui (op2, d2, a2, i2) ->
              let o2 = Option.get (opcode op2) in
              let after = comp (pc + 2) pend_c pend_i pend_a pend_s in
              fun ctx ->
                let r = (ctx.cpu : Cpu.t).regs in
                r.(d1) <- eval_opc o1 r.(a1) i1;
                r.(d2) <- eval_opc o2 r.(a2) i2;
                after ctx
          | _ -> assert false)
      (* An address-forming ALU op feeding a proof-elided access: both are
         straight-line and non-faulting, so they fuse — the mirror image
         of the [Ld]+[Alu] pattern above, covering the compute-address /
         access / compute-next rhythm of verified loop bodies. *)
      | Alu (op, rd, ra, rb)
        when opcode op <> None
             && next < stop
             && (match prog.(next) with
                | Ld _ | St _ -> safe_at next
                | _ -> false) -> (
          incr fused;
          incr elided;
          let o = Option.get (opcode op) in
          let pend_c = pend_c + own + cost_of next
          and pend_i = pend_i + 2
          and pend_a = pend_a + 1 in
          let after = comp (pc + 2) pend_c pend_i pend_a pend_s in
          match (prog.(next) : Insn.t) with
          | Ld (rd2, rb2, off2) ->
              fun ctx ->
                let t : Cpu.t = ctx.cpu in
                let r = t.regs in
                r.(rd) <- eval_opc o r.(ra) r.(rb);
                r.(rd2) <- Mem.load t.mem (r.(rb2) + off2);
                after ctx
          | St (rv2, rb2, off2) ->
              fun ctx ->
                let t : Cpu.t = ctx.cpu in
                let r = t.regs in
                r.(rd) <- eval_opc o r.(ra) r.(rb);
                Mem.store t.mem (r.(rb2) + off2) r.(rv2);
                after ctx
          | _ -> assert false)
      | Alui (op, rd, ra, imm)
        when opcode op <> None
             && next < stop
             && (match prog.(next) with
                | Ld _ | St _ -> safe_at next
                | _ -> false) -> (
          incr fused;
          incr elided;
          let o = Option.get (opcode op) in
          let pend_c = pend_c + own + cost_of next
          and pend_i = pend_i + 2
          and pend_a = pend_a + 1 in
          let after = comp (pc + 2) pend_c pend_i pend_a pend_s in
          match (prog.(next) : Insn.t) with
          | Ld (rd2, rb2, off2) ->
              fun ctx ->
                let t : Cpu.t = ctx.cpu in
                let r = t.regs in
                r.(rd) <- eval_opc o r.(ra) imm;
                r.(rd2) <- Mem.load t.mem (r.(rb2) + off2);
                after ctx
          | St (rv2, rb2, off2) ->
              fun ctx ->
                let t : Cpu.t = ctx.cpu in
                let r = t.regs in
                r.(rd) <- eval_opc o r.(ra) imm;
                Mem.store t.mem (r.(rb2) + off2) r.(rv2);
                after ctx
          | _ -> assert false)
      (* ---- straight-line instructions ---- *)
      | Li (rd, v) ->
          let after = comp next (pend_c + own) (pend_i + 1) pend_a pend_s in
          fun ctx ->
            (ctx.cpu : Cpu.t).regs.(rd) <- v;
            after ctx
      | Mov (rd, rs) ->
          let after = comp next (pend_c + own) (pend_i + 1) pend_a pend_s in
          fun ctx ->
            let r = (ctx.cpu : Cpu.t).regs in
            r.(rd) <- r.(rs);
            after ctx
      | Sandbox rr ->
          let after = comp next (pend_c + own) (pend_i + 1) pend_a pend_s in
          fun ctx ->
            let t : Cpu.t = ctx.cpu in
            t.regs.(rr) <- Mem.sandbox t.seg t.regs.(rr);
            t.sandbox_cy <- t.sandbox_cy + own;
            after ctx
      | Alu (op, rd, ra, rb) -> (
          match opcode op with
          | Some o ->
              let after = comp next (pend_c + own) (pend_i + 1) pend_a pend_s in
              fun ctx ->
                let r = (ctx.cpu : Cpu.t).regs in
                r.(rd) <- eval_opc o r.(ra) r.(rb);
                after ctx
          | None ->
              let dc = pend_c + own
              and di = pend_i + 1
              and da = pend_a in
              let after = comp next 0 0 0 0 in
              fun ctx ->
                let t : Cpu.t = ctx.cpu in
                if pend_s <> 0 then
                  t.sandbox_cy <- t.sandbox_cy + pend_s;
                t.cycles <- t.cycles + dc;
                t.insns <- t.insns + di;
                t.accesses <- t.accesses + da;
                t.pc <- pc;
                let r = t.regs in
                r.(rd) <- faulting_alu op r.(ra) r.(rb);
                after ctx)
      | Alui (op, rd, ra, imm) -> (
          match opcode op with
          | Some o ->
              let after = comp next (pend_c + own) (pend_i + 1) pend_a pend_s in
              fun ctx ->
                let r = (ctx.cpu : Cpu.t).regs in
                r.(rd) <- eval_opc o r.(ra) imm;
                after ctx
          | None ->
              let dc = pend_c + own
              and di = pend_i + 1
              and da = pend_a in
              let after = comp next 0 0 0 0 in
              fun ctx ->
                let t : Cpu.t = ctx.cpu in
                if pend_s <> 0 then
                  t.sandbox_cy <- t.sandbox_cy + pend_s;
                t.cycles <- t.cycles + dc;
                t.insns <- t.insns + di;
                t.accesses <- t.accesses + da;
                t.pc <- pc;
                let r = t.regs in
                r.(rd) <- faulting_alu op r.(ra) imm;
                after ctx)
      (* Proof-elided accesses: the address is provably in-segment for the
         running segment, so the access can never fault and is compiled
         like [Mov] — no counter flush, no pc store. The pending access
         count keeps it observable exactly where the interpreter would
         expose it (the next fault, kernel call or block exit). *)
      | Ld (rd, rb, off) when safe_at pc ->
          incr elided;
          let after = comp next (pend_c + own) (pend_i + 1) (pend_a + 1) pend_s in
          fun ctx ->
            let t : Cpu.t = ctx.cpu in
            t.regs.(rd) <- Mem.load t.mem (t.regs.(rb) + off);
            after ctx
      | St (rv, rb, off) when safe_at pc ->
          incr elided;
          let after = comp next (pend_c + own) (pend_i + 1) (pend_a + 1) pend_s in
          fun ctx ->
            let t : Cpu.t = ctx.cpu in
            Mem.store t.mem (t.regs.(rb) + off) t.regs.(rv);
            after ctx
      | Ld (rd, rb, off) ->
          let dc = pend_c + own
          and di = pend_i + 1
          and da = pend_a + 1 in
          let after = comp next 0 0 0 0 in
          fun ctx ->
            let t : Cpu.t = ctx.cpu in
            if pend_s <> 0 then
              t.sandbox_cy <- t.sandbox_cy + pend_s;
            t.cycles <- t.cycles + dc;
            t.insns <- t.insns + di;
            t.pc <- pc;
            t.accesses <- t.accesses + da;
            t.regs.(rd) <- Mem.load t.mem (t.regs.(rb) + off);
            after ctx
      | St (rv, rb, off) ->
          let dc = pend_c + own
          and di = pend_i + 1
          and da = pend_a + 1 in
          let after = comp next 0 0 0 0 in
          fun ctx ->
            let t : Cpu.t = ctx.cpu in
            if pend_s <> 0 then
              t.sandbox_cy <- t.sandbox_cy + pend_s;
            t.cycles <- t.cycles + dc;
            t.insns <- t.insns + di;
            t.pc <- pc;
            t.accesses <- t.accesses + da;
            Mem.store t.mem (t.regs.(rb) + off) t.regs.(rv);
            after ctx
      | Push rv ->
          let dc = pend_c + own
          and di = pend_i + 1
          and da = pend_a + 1 in
          let after = comp next 0 0 0 0 in
          fun ctx ->
            let t : Cpu.t = ctx.cpu in
            if pend_s <> 0 then
              t.sandbox_cy <- t.sandbox_cy + pend_s;
            t.cycles <- t.cycles + dc;
            t.insns <- t.insns + di;
            t.pc <- pc;
            t.accesses <- t.accesses + da;
            let r = t.regs in
            r.(Insn.sp) <- r.(Insn.sp) - 1;
            Mem.store t.mem r.(Insn.sp) r.(rv);
            after ctx
      | Pop rd ->
          let dc = pend_c + own
          and di = pend_i + 1
          and da = pend_a + 1 in
          let after = comp next 0 0 0 0 in
          fun ctx ->
            let t : Cpu.t = ctx.cpu in
            if pend_s <> 0 then
              t.sandbox_cy <- t.sandbox_cy + pend_s;
            t.cycles <- t.cycles + dc;
            t.insns <- t.insns + di;
            t.pc <- pc;
            t.accesses <- t.accesses + da;
            let r = t.regs in
            r.(rd) <- Mem.load t.mem r.(Insn.sp);
            r.(Insn.sp) <- r.(Insn.sp) + 1;
            after ctx
      | Checkcall rr ->
          let dc = pend_c + own
          and di = pend_i + 1
          and da = pend_a in
          let after = comp next 0 0 0 0 in
          fun ctx ->
            let t : Cpu.t = ctx.cpu in
            if pend_s <> 0 then
              t.sandbox_cy <- t.sandbox_cy + pend_s;
            t.cycles <- t.cycles + dc;
            t.insns <- t.insns + di;
            t.accesses <- t.accesses + da;
            t.checkcall_cy <- t.checkcall_cy + own;
            t.pc <- pc;
            let id = t.regs.(rr) in
            if ctx.env.call_ok id then after ctx
            else raise (Cpu.Fault_exn (Cpu.Bad_call_target id))
      (* ---- conditional branch inside the block ---- *)
      | Br (c, ra, rb, target) when next < stop ->
          (* Not taken: fall through inline, costs still pending. Taken:
             flush, record the unexecuted remainder for the driver's
             poll counter, and exit early. *)
          let cmp = cond_fn c in
          let dc = pend_c + own
          and di = pend_i + 1
          and da = pend_a in
          let back = stop - next + extra_back in
          let after = comp next (pend_c + own) (pend_i + 1) pend_a pend_s in
          fun ctx ->
            let t : Cpu.t = ctx.cpu in
            if cmp t.regs.(ra) t.regs.(rb) then begin
              if pend_s <> 0 then
                t.sandbox_cy <- t.sandbox_cy + pend_s;
              t.cycles <- t.cycles + dc;
              t.insns <- t.insns + di;
              t.accesses <- t.accesses + da;
              ctx.back <- back;
              target
            end
            else after ctx
      (* ---- terminators ---- *)
      | Br (c, ra, rb, target) ->
          let cmp = cond_fn c in
          let dc = pend_c + own
          and di = pend_i + 1
          and da = pend_a in
          fun ctx ->
            let t : Cpu.t = ctx.cpu in
            if pend_s <> 0 then
              t.sandbox_cy <- t.sandbox_cy + pend_s;
            t.cycles <- t.cycles + dc;
            t.insns <- t.insns + di;
            t.accesses <- t.accesses + da;
            if cmp t.regs.(ra) t.regs.(rb) then target else next
      | Jmp target -> (
          let dc = pend_c + own
          and di = pend_i + 1
          and da = pend_a in
          match chain with
          | None ->
              fun ctx ->
                let t : Cpu.t = ctx.cpu in
                if pend_s <> 0 then
                  t.sandbox_cy <- t.sandbox_cy + pend_s;
                t.cycles <- t.cycles + dc;
                t.insns <- t.insns + di;
                t.accesses <- t.accesses + da;
                target
          | Some kont ->
              (* A chained loop-closing jump vanishes at compile time:
                 the next copy's first closure IS this jump's closure,
                 entered with the jump's counts still pending. *)
              kont dc di da pend_s)
      | Call target ->
          let dc = pend_c + own
          and di = pend_i + 1
          and da = pend_a in
          fun ctx ->
            let t : Cpu.t = ctx.cpu in
            if pend_s <> 0 then
              t.sandbox_cy <- t.sandbox_cy + pend_s;
            t.cycles <- t.cycles + dc;
            t.insns <- t.insns + di;
            t.accesses <- t.accesses + da;
            t.pc <- pc;
            Cpu.push_call t next;
            target
      | Callr rr ->
          let dc = pend_c + own
          and di = pend_i + 1
          and da = pend_a in
          fun ctx ->
            let t : Cpu.t = ctx.cpu in
            if pend_s <> 0 then
              t.sandbox_cy <- t.sandbox_cy + pend_s;
            t.cycles <- t.cycles + dc;
            t.insns <- t.insns + di;
            t.accesses <- t.accesses + da;
            t.pc <- pc;
            Cpu.push_call t next;
            t.regs.(rr)
      | Ret ->
          let dc = pend_c + own
          and di = pend_i + 1
          and da = pend_a in
          fun ctx ->
            let t : Cpu.t = ctx.cpu in
            if pend_s <> 0 then
              t.sandbox_cy <- t.sandbox_cy + pend_s;
            t.cycles <- t.cycles + dc;
            t.insns <- t.insns + di;
            t.accesses <- t.accesses + da;
            if t.depth = 0 then begin
              t.pc <- pc;
              finish ctx Cpu.Halted
            end
            else begin
              t.depth <- t.depth - 1;
              t.callstack.(t.depth)
            end
      | Kcall id ->
          let dc = pend_c + own
          and di = pend_i + 1
          and da = pend_a in
          fun ctx ->
            let t : Cpu.t = ctx.cpu in
            if pend_s <> 0 then
              t.sandbox_cy <- t.sandbox_cy + pend_s;
            t.cycles <- t.cycles + dc;
            t.insns <- t.insns + di;
            t.accesses <- t.accesses + da;
            t.pc <- pc;
            (match ctx.env.kcall id t with
            | Cpu.K_ok -> next
            | Cpu.K_abort reason -> finish ctx (Cpu.Aborted reason)
            | Cpu.K_fault f -> finish ctx (Cpu.Faulted f))
      | Kcallr rr ->
          let dc = pend_c + own
          and di = pend_i + 1
          and da = pend_a in
          fun ctx ->
            let t : Cpu.t = ctx.cpu in
            if pend_s <> 0 then
              t.sandbox_cy <- t.sandbox_cy + pend_s;
            t.cycles <- t.cycles + dc;
            t.insns <- t.insns + di;
            t.accesses <- t.accesses + da;
            t.pc <- pc;
            (match ctx.env.kcall t.regs.(rr) t with
            | Cpu.K_ok -> next
            | Cpu.K_abort reason -> finish ctx (Cpu.Aborted reason)
            | Cpu.K_fault f -> finish ctx (Cpu.Faulted f))
      | Halt ->
          let dc = pend_c + own
          and di = pend_i + 1
          and da = pend_a in
          fun ctx ->
            let t : Cpu.t = ctx.cpu in
            if pend_s <> 0 then
              t.sandbox_cy <- t.sandbox_cy + pend_s;
            t.cycles <- t.cycles + dc;
            t.insns <- t.insns + di;
            t.accesses <- t.accesses + da;
            t.pc <- pc;
            finish ctx Cpu.Halted
  in
  let c0, i0, a0, s0 = pend0 in
  comp start c0 i0 a0 s0

(* -------------------------------------------------------------------- *)
(* Careful path: one interpreter-exact closure per instruction           *)
(* -------------------------------------------------------------------- *)

(* The driver has already re-checked fuel/poll/bounds and stored [pc],
   exactly as the interpreter's loop head does; each closure replicates
   one loop iteration: charge, attribute, step. *)
end

let compile_block = Fast_body.compile_block

let compile_slow ~costs pc (i : Insn.t) : ctx -> int =
  let cost = Costs.insn costs i in
  let next = pc + 1 in
  match i with
  | Li (rd, v) ->
      fun ctx ->
        let t : Cpu.t = ctx.cpu in
        t.insns <- t.insns + 1;
        t.cycles <- t.cycles + cost;
        t.regs.(rd) <- v;
        next
  | Mov (rd, rs) ->
      fun ctx ->
        let t : Cpu.t = ctx.cpu in
        t.insns <- t.insns + 1;
        t.cycles <- t.cycles + cost;
        let r = t.regs in
        r.(rd) <- r.(rs);
        next
  | Alu (op, rd, ra, rb) -> (
      match opcode op with
      | Some o ->
          fun ctx ->
            let t : Cpu.t = ctx.cpu in
            t.insns <- t.insns + 1;
            t.cycles <- t.cycles + cost;
            let r = t.regs in
            r.(rd) <- eval_opc o r.(ra) r.(rb);
            next
      | None ->
          fun ctx ->
            let t : Cpu.t = ctx.cpu in
            t.insns <- t.insns + 1;
            t.cycles <- t.cycles + cost;
            let r = t.regs in
            r.(rd) <- faulting_alu op r.(ra) r.(rb);
            next)
  | Alui (op, rd, ra, imm) -> (
      match opcode op with
      | Some o ->
          fun ctx ->
            let t : Cpu.t = ctx.cpu in
            t.insns <- t.insns + 1;
            t.cycles <- t.cycles + cost;
            let r = t.regs in
            r.(rd) <- eval_opc o r.(ra) imm;
            next
      | None ->
          fun ctx ->
            let t : Cpu.t = ctx.cpu in
            t.insns <- t.insns + 1;
            t.cycles <- t.cycles + cost;
            let r = t.regs in
            r.(rd) <- faulting_alu op r.(ra) imm;
            next)
  | Ld (rd, rb, off) ->
      fun ctx ->
        let t : Cpu.t = ctx.cpu in
        t.insns <- t.insns + 1;
        t.cycles <- t.cycles + cost;
        t.accesses <- t.accesses + 1;
        t.regs.(rd) <- Mem.load t.mem (t.regs.(rb) + off);
        next
  | St (rv, rb, off) ->
      fun ctx ->
        let t : Cpu.t = ctx.cpu in
        t.insns <- t.insns + 1;
        t.cycles <- t.cycles + cost;
        t.accesses <- t.accesses + 1;
        Mem.store t.mem (t.regs.(rb) + off) t.regs.(rv);
        next
  | Push rv ->
      fun ctx ->
        let t : Cpu.t = ctx.cpu in
        t.insns <- t.insns + 1;
        t.cycles <- t.cycles + cost;
        t.accesses <- t.accesses + 1;
        let r = t.regs in
        r.(Insn.sp) <- r.(Insn.sp) - 1;
        Mem.store t.mem r.(Insn.sp) r.(rv);
        next
  | Pop rd ->
      fun ctx ->
        let t : Cpu.t = ctx.cpu in
        t.insns <- t.insns + 1;
        t.cycles <- t.cycles + cost;
        t.accesses <- t.accesses + 1;
        let r = t.regs in
        r.(rd) <- Mem.load t.mem r.(Insn.sp);
        r.(Insn.sp) <- r.(Insn.sp) + 1;
        next
  | Sandbox rr ->
      fun ctx ->
        let t : Cpu.t = ctx.cpu in
        t.insns <- t.insns + 1;
        t.cycles <- t.cycles + cost;
        t.sandbox_cy <- t.sandbox_cy + cost;
        t.regs.(rr) <- Mem.sandbox t.seg t.regs.(rr);
        next
  | Checkcall rr ->
      fun ctx ->
        let t : Cpu.t = ctx.cpu in
        t.insns <- t.insns + 1;
        t.cycles <- t.cycles + cost;
        t.checkcall_cy <- t.checkcall_cy + cost;
        let id = t.regs.(rr) in
        if ctx.env.call_ok id then next
        else raise (Cpu.Fault_exn (Cpu.Bad_call_target id))
  | Br (c, ra, rb, target) ->
      let cmp = cond_fn c in
      fun ctx ->
        let t : Cpu.t = ctx.cpu in
        t.insns <- t.insns + 1;
        t.cycles <- t.cycles + cost;
        if cmp t.regs.(ra) t.regs.(rb) then target else next
  | Jmp target ->
      fun ctx ->
        let t : Cpu.t = ctx.cpu in
        t.insns <- t.insns + 1;
        t.cycles <- t.cycles + cost;
        target
  | Call target ->
      fun ctx ->
        let t : Cpu.t = ctx.cpu in
        t.insns <- t.insns + 1;
        t.cycles <- t.cycles + cost;
        Cpu.push_call t next;
        target
  | Callr rr ->
      fun ctx ->
        let t : Cpu.t = ctx.cpu in
        t.insns <- t.insns + 1;
        t.cycles <- t.cycles + cost;
        Cpu.push_call t next;
        t.regs.(rr)
  | Ret ->
      fun ctx ->
        let t : Cpu.t = ctx.cpu in
        t.insns <- t.insns + 1;
        t.cycles <- t.cycles + cost;
        if t.depth = 0 then finish ctx Cpu.Halted
        else begin
          t.depth <- t.depth - 1;
          t.callstack.(t.depth)
        end
  | Kcall id ->
      fun ctx ->
        let t : Cpu.t = ctx.cpu in
        t.insns <- t.insns + 1;
        t.cycles <- t.cycles + cost;
        (match ctx.env.kcall id t with
        | Cpu.K_ok -> next
        | Cpu.K_abort reason -> finish ctx (Cpu.Aborted reason)
        | Cpu.K_fault f -> finish ctx (Cpu.Faulted f))
  | Kcallr rr ->
      fun ctx ->
        let t : Cpu.t = ctx.cpu in
        t.insns <- t.insns + 1;
        t.cycles <- t.cycles + cost;
        (match ctx.env.kcall t.regs.(rr) t with
        | Cpu.K_ok -> next
        | Cpu.K_abort reason -> finish ctx (Cpu.Aborted reason)
        | Cpu.K_fault f -> finish ctx (Cpu.Faulted f))
  | Halt ->
      fun ctx ->
        let t : Cpu.t = ctx.cpu in
        t.insns <- t.insns + 1;
        t.cycles <- t.cycles + cost;
        finish ctx Cpu.Halted

(* -------------------------------------------------------------------- *)
(* Translation                                                           *)
(* -------------------------------------------------------------------- *)

(* Cross-block fusion cap: a fused segment longer than the poll interval
   could never pass the fast-entry poll condition, so extending past it
   only costs compile time. *)
let xblock_cap = 32

(* Prefix-ladder levels: lengths 2^0 .. 2^5; 32 covers a full default
   poll window, so any remainder a tail entry can face is expressible. *)
let grade_levels = 6

(* The abort-poll interval {!Cpu.run} defaults to; unrolled self-loop
   tails are sized so a whole window's worth of iterations fits. *)
let default_poll_every = 32

(* Every compiled slot (tail, ladder rung, exact window) starts as this
   one shared sentinel, which is never called: {!drive} tests a slot
   against it with [==] and on a match compiles the slot and stores the
   result, so from the second dispatch on it runs what an eager
   translation would. No compiled closure reads a slot. Domains racing
   on a first dispatch each compile and store an equivalent closure;
   under OCaml 5's memory model a reader sees the sentinel or a fully
   initialised closure, either is correct, so no lock is needed. The
   fusion counts of these compiles land in [scrap], which nothing reads
   ({!census} recounts the block heads). *)
let uncompiled : ctx -> int = fun _ -> invalid_arg "Jit: uncompiled slot"
let scrap = ref 0

let compile_range ?chain ?extra_back ?pend0 t start stop =
  compile_block ~costs:t.costs ~safe_at:t.safe_at ?chain ?extra_back ?pend0
    t.source ~start ~stop ~fused:scrap ~elided:scrap

let compile_tail t pc =
  let f = compile_range t pc (pc + t.len_of_pc.(pc)) in
  t.body_of_pc.(pc) <- f;
  f

let compile_grade t j pc =
  let f = compile_range t pc (pc + (1 lsl j)) in
  t.grade_body.(j).(pc) <- f;
  f

(* The exact window at [pc] for [room] instructions, of the loop whose
   closing [Jmp h] ends [pc]'s tail. The copies are compiled
   back-to-front through the [chain] continuation, threading the
   pending accumulators across copy boundaries: each chained
   loop-closing jump dissolves into the next copy at compile time, and
   the whole window flushes once, at its end (or at whatever observable
   event — a taken guard, a fault — cuts it short, which flushes the
   carried pends first exactly as within a single block). [extra_back]
   extends an early exit's not-run count over the chained copies,
   keeping the poll arithmetic of {!drive} exact. *)
let compile_window t pc room =
  let stop = pc + t.len_of_pc.(pc) in
  let h =
    match t.source.(stop - 1) with Insn.Jmp h -> h | _ -> assert false
  in
  let rec window start room pend =
    let p = stop - start in
    if room <= p then compile_range ~pend0:pend t start (start + room)
    else
      compile_range ~pend0:pend ~extra_back:(room - p)
        ~chain:(fun c i a s -> window h (room - p) (c, i, a, s))
        t start stop
  in
  let f = window pc room (0, 0, 0, 0) in
  t.exact_body.(pc).(room) <- f;
  f

let translate ?(costs = Costs.default) ?safe ?(xblock = true) prog =
  let source = Array.copy prog in
  let prog = source in
  let n = Array.length prog in
  (* [safe.(pc)] licenses compiling the access at [pc] without fault
     handling. A map of the wrong length means the proof was derived from
     different code; ignore it rather than mis-align indices. *)
  let safe_at =
    match safe with
    | Some m when Array.length m = n -> fun pc -> Array.unsafe_get m pc
    | Some _ | None -> fun _ -> false
  in
  (* Unchecked register indexing in fast bodies is licensed by this scan;
     a program with an out-of-range register number (impossible through
     the assembler, but [translate] is a public API) runs on slow
     closures, whose checked accesses raise exactly what the interpreter
     would; only a lone self-jump, which names no register, still gets
     its exact windows. *)
  let regs_ok =
    Array.for_all
      (fun i ->
        List.for_all
          (fun r -> r >= 0 && r < Insn.num_regs)
          (Insn.registers_used i))
      prog
  in
  let leader = Array.make (max n 1) false in
  if n > 0 then leader.(0) <- true;
  Array.iteri
    (fun pc i ->
      (match (i : Insn.t) with
      | Br (_, _, _, target) | Jmp target | Call target ->
          if target >= 0 && target < n then leader.(target) <- true
      | _ -> ());
      (* A conditional branch falls through into its block (the body
         exits early when taken), so unlike the other terminators it
         does not force a leader at pc + 1. *)
      match (i : Insn.t) with
      | Br _ -> ()
      | i -> if terminates i && pc + 1 < n then leader.(pc + 1) <- true)
    prog;
  let cost_prefix = Array.make (n + 1) 0 in
  for m = 0 to n - 1 do
    cost_prefix.(m + 1) <- cost_prefix.(m) + Costs.insn costs prog.(m)
  done;
  let sum_cost lo hi = cost_prefix.(hi) - cost_prefix.(lo) in
  let nblocks = ref 0 in
  let heads = ref [] in
  let slow = Array.mapi (fun k i -> compile_slow ~costs k i) prog in
  let body_of_pc = Array.make n uncompiled in
  let cost_of_pc = Array.make n 0 in
  let len_of_pc = Array.make n 0 in
  let grade_body =
    Array.init grade_levels (fun _ -> Array.make n uncompiled)
  in
  let exact_body = Array.make n [||] in
  let exact_cost = Array.make n [||] in
  (* Compiling a tail for every suffix of a block would be quadratic in
     block length; tails compile on first entry, so only suffixes a run
     enters are compiled, and this cap bounds each one. Past it a pc
     keeps its slow closure as a one-instruction tail (same semantics,
     and the fast-entry conditions stay trivially exact). Suffixes
     longer than the poll interval could never pass the fast-entry poll
     condition anyway. *)
  let tail_cap = 64 in
  let ends pc =
    match (prog.(pc) : Insn.t) with
    | Br _ -> false (* extends through its fall-through *)
    | i -> terminates i
  in
  (* The tail at [k] compiles to the end of [k]'s basic block — or, with
     cross-block fusion on, through any chain of unconditional
     fallthroughs into successor blocks (a leader reached without a
     terminator is straight-line control flow: the leader merely marks a
     join point some branch also targets). The join-point pc keeps its
     own tail for entries that arrive by branching, so extending the
     fallthrough tail past it never orphans an entry point. *)
  let tail_stop k =
    let cap = if xblock then min n (k + xblock_cap) else n in
    let j = ref k in
    while
      (not (ends !j)) && !j + 1 < cap && (xblock || not leader.(!j + 1))
    do
      incr j
    done;
    !j + 1
  in
  let pc = ref 0 in
  while !pc < n do
    let start = !pc in
    let j = ref start in
    while (not (ends !j)) && !j + 1 < n && not leader.(!j + 1) do
      incr j
    done;
    let bstop = !j + 1 in
    for k = start to bstop - 1 do
      let stop = tail_stop k in
      if regs_ok && stop - k <= tail_cap then begin
        if k = start then heads := (k, stop) :: !heads;
        len_of_pc.(k) <- stop - k;
        cost_of_pc.(k) <- sum_cost k stop
      end
      else begin
        (* Slow closures expect [cpu.pc] to be current (the slow driver
           branch stores it); the fast branch does not, so do it here. *)
        let s = slow.(k) in
        (body_of_pc.(k) <-
           fun ctx ->
             let t : Cpu.t = ctx.cpu in
             t.pc <- k;
             s ctx);
        len_of_pc.(k) <- 1;
        cost_of_pc.(k) <- Costs.insn costs prog.(k)
      end
    done;
    incr nblocks;
    pc := bstop
  done;
  (* Unrolled self-loops, second pass (every tail's length is known by
     now). A head [h] whose full tail ends with [Jmp h] is a straight-line
     loop body. Every pc inside the loop gets one chain slot per possible
     remaining-window size, consuming exactly that many instructions:
     the rest of the current pass, whole copies of the body, and a
     prefix of the last pass cut at the window boundary — so a dispatch
     from any loop phase consumes its entire poll window in one hop
     ({!compile_window}). A lone [Jmp h] is a loop body too. *)
  for h = 0 to n - 1 do
    let flen = len_of_pc.(h) in
    let stop = h + flen in
    if
      flen <= default_poll_every
      && Array.length exact_body.(h) = 0
      && stop <= n
      &&
      match (prog.(stop - 1) : Insn.t) with
      | Jmp target -> target = h
      | _ -> false
    then begin
      let lcost = cost_of_pc.(h) in
      for k = h to stop - 1 do
        let p = stop - k in
        if len_of_pc.(k) = p && Array.length exact_body.(k) = 0 then begin
          let pcost = sum_cost k stop in
          let xc = Array.make (default_poll_every + 1) 0 in
          for room = 1 to default_poll_every do
            xc.(room) <-
              (if room < p then sum_cost k (k + room)
               else
                 let rest = room - p in
                 pcost + (rest / flen * lcost) + sum_cost h (h + (rest mod flen)))
          done;
          exact_body.(k) <- Array.make (default_poll_every + 1) uncompiled;
          exact_cost.(k) <- xc
        end
      done
    end
  done;
  {
    source;
    nblocks = !nblocks;
    costs;
    safe_at;
    heads = !heads;
    body_of_pc;
    cost_of_pc;
    len_of_pc;
    cost_prefix;
    grade_body;
    exact_body;
    exact_cost;
    slow;
  }

let block_count t = t.nblocks

(* Fusion statistics, counted on demand by compiling every block-head
   tail afresh into local counters: the same compilation a head's first
   entry runs, so the figures describe what executes. Translation itself
   compiles nothing and no counter is shared, so concurrent callers
   cannot race; every caller ([vino inspect], the cache listing, the
   wall bench) is cold. *)
let census t =
  let fused = ref 0 and elided = ref 0 in
  List.iter
    (fun (start, stop) ->
      ignore
        (compile_block ~costs:t.costs ~safe_at:t.safe_at t.source ~start
           ~stop ~fused ~elided
          : ctx -> int))
    t.heads;
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

(* One iteration per control transfer, replicating the interpreter's
   loop-head checks in its exact order: fuel, poll, pc bounds. [cpu.pc]
   is written only where it is observable — on every exit and before
   each slow step (fast bodies store it themselves ahead of anything
   that can fault or call out). Any in-range pc has a fast tail running
   to the end of its block/segment, so resuming mid-block (after a poll
   reset or a refueled slice) stays on the fast path; the bounds check
   above makes the unsafe array reads safe. A top-level function rather
   than a closure so entering costs no allocation. *)

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
    let xb = Array.unsafe_get t.exact_body pc in
    if Array.length xb > 0 then begin
      (* Inside a straight-line self-loop: consume the whole remaining
         poll window in one dispatch — the rest of this pass, chained
         whole iterations, and a compiled prefix of the final pass cut
         exactly at the window boundary. The pending counts thread
         across the chained copies and flush once, at the window's end
         (or at whatever observable event cuts it short). An
         under-fuelled window takes the graded path instead, which
         meters fuel hop by hop. *)
      let room = poll_every - since_poll in
      let ri = if room > default_poll_every then default_poll_every
               else room in
      if
        cpu.cycles + Array.unsafe_get (Array.unsafe_get t.exact_cost pc) ri
        <= cpu.fuel
      then begin
        let f = Array.unsafe_get xb ri in
        let f = if f == uncompiled then compile_window t pc ri else f in
        let pc' = f ctx in
        let walked = since_poll + ri in
        if ctx.fin then ctx.out
        else if ctx.back = 0 then drive t ctx len poll_every pc' walked
        else begin
          let w = walked - ctx.back in
          ctx.back <- 0;
          drive t ctx len poll_every pc' w
        end
      end
      else fallback t ctx len poll_every pc since_poll room
    end
    else
    let tail_len = Array.unsafe_get t.len_of_pc pc in
    let walked = since_poll + tail_len in
    if
      walked <= poll_every
      && cpu.cycles + Array.unsafe_get t.cost_of_pc pc <= cpu.fuel
    then
      let f = Array.unsafe_get t.body_of_pc pc in
      let f = if f == uncompiled then compile_tail t pc else f in
      let pc' = f ctx in
      if ctx.fin then ctx.out
      else if ctx.back = 0 then drive t ctx len poll_every pc' walked
      else begin
        (* A conditional branch inside the body was taken: the tail's
           last [ctx.back] instructions did not run. *)
        let w = walked - ctx.back in
        ctx.back <- 0;
        drive t ctx len poll_every pc' w
      end
    else begin
      (* The full tail cannot fit the remaining window (or fuel): take
         the longest power-of-two prefix that does. Every length down to
         one instruction has a slot, so the remainder decomposes into
         compiled segments exactly; the slow step remains only for the
         fuel edge (where the interpreter executes an instruction whose
         charge overshoots the budget) and for programs without fast
         bodies. Each prefix is a genuine compiled segment ending in a
         flush, so the fast-path argument applies unchanged. *)
      fallback t ctx len poll_every pc since_poll (poll_every - since_poll)
    end

and fallback t ctx len poll_every pc since_poll room =
  (* start below the largest power that could fit the room *)
  let j0 =
    if room >= 32 then 5
    else if room >= 16 then 4
    else if room >= 8 then 3
    else if room >= 4 then 2
    else if room >= 2 then 1
    else 0
  in
  graded t ctx len poll_every pc since_poll room j0

and graded t ctx len poll_every pc since_poll room j =
  let cpu = ctx.cpu in
  if j < 0 then begin
    cpu.Cpu.pc <- pc;
    let pc2 = Array.unsafe_get t.slow pc ctx in
    if ctx.fin then ctx.out
    else drive t ctx len poll_every pc2 (since_poll + 1)
  end
  else
    let gl = 1 lsl j in
    if
      gl < Array.unsafe_get t.len_of_pc pc
      && gl <= room
      && cpu.cycles
         + Array.unsafe_get t.cost_prefix (pc + gl)
         - Array.unsafe_get t.cost_prefix pc
         <= cpu.fuel
    then
      let f = Array.unsafe_get (Array.unsafe_get t.grade_body j) pc in
      let f = if f == uncompiled then compile_grade t j pc else f in
      let pc2 = f ctx in
      let gwalked = since_poll + gl in
      if ctx.fin then ctx.out
      else if ctx.back = 0 then drive t ctx len poll_every pc2 gwalked
      else begin
        let w = gwalked - ctx.back in
        ctx.back <- 0;
        drive t ctx len poll_every pc2 w
      end
    else graded t ctx len poll_every pc since_poll room (j - 1)

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
  if cpu.checked || not (seg_confined cpu) then
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
