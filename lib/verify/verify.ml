module Insn = Vino_vm.Insn

type config = {
  entry : (Insn.reg * Absval.t) list;
  words : int;
  callable : (int -> bool) option;
  stage : [ `Source | `Rewritten ];
}

let config ?(entry = []) ?callable ?(stage = `Source) ~words () =
  if words < 1 then invalid_arg "Verify.config: words must be >= 1";
  List.iter
    (fun (r, _) ->
      if r < 0 || r >= Insn.num_regs then
        invalid_arg "Verify.config: entry register out of range")
    entry;
  { entry; words; callable; stage }

let seg_window ?(off = 0) () = Absval.Seg (Absval.const_itv off)
let arg_at_most n = Absval.Num (Absval.itv 0 n)

(* ------------------------- abstract machine state --------------------- *)

type state = { regs : Absval.t array; written : bool array }

let copy_state s = { regs = Array.copy s.regs; written = Array.copy s.written }

let entry_state conf =
  let regs = Array.make Insn.num_regs (Absval.num 0) in
  let written = Array.make Insn.num_regs false in
  (* calling convention: r1..r4 hold kernel-marshalled arguments, sp starts
     one word past the segment top; everything else is zeroed by Cpu.make *)
  for r = 1 to 4 do
    regs.(r) <- Absval.Top;
    written.(r) <- true
  done;
  regs.(Insn.sp) <- Absval.Stk (Absval.const_itv 0);
  written.(Insn.sp) <- true;
  List.iter
    (fun (r, v) ->
      regs.(r) <- v;
      written.(r) <- true)
    conf.entry;
  { regs; written }

let havoc_state () =
  {
    regs = Array.make Insn.num_regs Absval.Top;
    written = Array.make Insn.num_regs true;
  }

(* merge [next] into the recorded in-state of a block; widen once the block
   has changed often enough (a loop head) so the fixpoint terminates. The
   state is copied only when some register actually changes, so a merge
   that changes nothing allocates nothing. *)
let merge_into ~widen old next =
  let st = ref old in
  for r = 0 to Insn.num_regs - 1 do
    let o = old.regs.(r) in
    let v =
      if widen then Absval.widen o next.regs.(r)
      else Absval.join o next.regs.(r)
    in
    let w = old.written.(r) && next.written.(r) in
    if w <> old.written.(r) || not (Absval.equal v o) then begin
      if !st == old then st := copy_state old;
      !st.regs.(r) <- v;
      !st.written.(r) <- w
    end
  done;
  (!st, !st != old)

(* ------------------------------ transfer ------------------------------ *)

let classify_access conf (addr : Absval.t) : Report.access_class =
  match addr with
  | Absval.Seg i ->
      if i.Absval.lo >= 0 && i.Absval.hi <= conf.words - 1 then
        Report.Access_safe
      else if i.Absval.hi < 0 then Report.Access_oob
      else Report.Access_sandbox
  | Absval.Stk i ->
      (* the segment spans [base, base+size); the stack pointer starts at
         base+size and the real size is at least [words] *)
      if i.Absval.lo >= -conf.words && i.Absval.hi <= -1 then
        Report.Access_safe
      else if i.Absval.lo >= 0 then Report.Access_oob
      else Report.Access_sandbox
  | Absval.InSeg -> Report.Access_safe
  | Absval.Bot | Absval.Num _ | Absval.Cid _ | Absval.Top ->
      Report.Access_sandbox

let is_callable conf id =
  match conf.callable with Some f -> f id | None -> false

type sinks = {
  cls : int -> Report.insn_class -> unit;
  diag : Report.diag -> unit;
  lint_read : int -> Insn.reg -> unit;
}

let quiet_sinks =
  { cls = (fun _ _ -> ()); diag = (fun _ -> ()); lint_read = (fun _ _ -> ()) }

(* The per-step helpers of [exec_insn]: top-level, so stepping an
   instruction builds no closures. *)
let read sinks st k r =
  if not st.written.(r) then sinks.lint_read k r;
  st.regs.(r)

let set st r v =
  st.regs.(r) <- v;
  st.written.(r) <- true

let kcall_clobber st = set st 0 Absval.Top

let access conf sinks k ~what addr =
  let c = classify_access conf addr in
  sinks.cls k (Report.Access c);
  if c = Report.Access_oob then
    sinks.diag
      (Report.error ~index:k
         (Format.asprintf "%s address %a is provably outside the graft \
                           segment"
            what Absval.pp addr))

let div_check sinks k (op : Insn.alu) divisor =
  match op with
  | Div | Rem ->
      (* a warning, not an error: a provable run-time fault is still
         survivable (the transaction machinery undoes it), unlike a
         memory-safety violation *)
      if Absval.equal divisor (Absval.num 0) then
        sinks.diag
          (Report.warning ~index:k "division by a provably-zero divisor")
  | _ -> ()

let exec_insn conf sinks st k (i : Insn.t) =
  match i with
  | Li (rd, v) ->
      set st rd
        (if v >= 0 && is_callable conf v then Absval.Cid v else Absval.num v)
  | Mov (rd, rs) -> set st rd (read sinks st k rs)
  | Alu (op, rd, ra, rb) ->
      let a = read sinks st k ra in
      let b = read sinks st k rb in
      div_check sinks k op b;
      set st rd (Absval.alu op a b)
  | Alui (op, rd, ra, imm) ->
      let a = read sinks st k ra in
      div_check sinks k op (Absval.num imm);
      set st rd (Absval.alu op a (Absval.num imm))
  | Ld (rd, rb, off) ->
      access conf sinks k ~what:"load"
        (Absval.alu Add (read sinks st k rb) (Absval.num off));
      set st rd Absval.Top (* memory contents are not tracked *)
  | St (rv, rb, off) ->
      ignore (read sinks st k rv);
      access conf sinks k ~what:"store"
        (Absval.alu Add (read sinks st k rb) (Absval.num off))
  | Push rv ->
      ignore (read sinks st k rv);
      let sp' = Absval.alu Sub (read sinks st k Insn.sp) (Absval.num 1) in
      set st Insn.sp sp';
      access conf sinks k ~what:"push" sp'
  | Pop rd ->
      let sp = read sinks st k Insn.sp in
      access conf sinks k ~what:"pop" sp;
      set st rd Absval.Top;
      set st Insn.sp (Absval.alu Add sp (Absval.num 1))
  | Kcall id ->
      (* id < 0 is an unresolved relocation placeholder for the linker *)
      (match conf.callable with
      | Some f when id >= 0 && not (f id) ->
          sinks.diag
            (Report.error ~index:k
               (Printf.sprintf "kernel function id %d is not graft-callable"
                  id))
      | _ -> ());
      kcall_clobber st
  | Kcallr r ->
      let c =
        match read sinks st k r with
        | Absval.Cid id -> Report.Call_safe id
        | Absval.Num i -> (
            match (Absval.is_const i, conf.callable) with
            | Some id, Some f ->
                if f id then Report.Call_safe id else Report.Call_bad id
            | _ -> Report.Call_check)
        | _ -> Report.Call_check
      in
      sinks.cls k (Report.Icall c);
      (match c with
      | Report.Call_bad id ->
          sinks.diag
            (Report.error ~index:k
               (Printf.sprintf
                  "indirect kernel call to id %d, which is provably not \
                   graft-callable"
                  id))
      | _ -> ());
      kcall_clobber st
  | Sandbox r ->
      ignore (read sinks st k r);
      set st r Absval.InSeg
  | Checkcall r -> ignore (read sinks st k r)
  | Br (_, ra, rb, _) ->
      ignore (read sinks st k ra);
      ignore (read sinks st k rb)
  | Callr r -> ignore (read sinks st k r)
  | Jmp _ | Call _ | Ret | Halt -> ()

(* Run one block from its in-state; returns the successor edges with their
   out-states (branch conditions refined on each edge). *)
let run_block conf sinks prog cfg st0 (b : Cfg.block) =
  let n = Array.length prog in
  let st = copy_state st0 in
  for k = b.Cfg.first to b.Cfg.last do
    exec_insn conf sinks st k prog.(k)
  done;
  let fall_through st =
    if b.Cfg.last + 1 < n then [ ((Cfg.block_at cfg (b.Cfg.last + 1)).Cfg.id, st) ]
    else []
  in
  match prog.(b.Cfg.last) with
  | Insn.Jmp t -> [ ((Cfg.block_at cfg t).Cfg.id, st) ]
  | Insn.Br (c, ra, rb, t) ->
      let refined cond =
        match Absval.refine cond st.regs.(ra) st.regs.(rb) with
        | Error `Infeasible -> None
        | Ok None -> Some (copy_state st)
        | Ok (Some (va, vb)) ->
            let st' = copy_state st in
            st'.regs.(ra) <- va;
            st'.regs.(rb) <- vb;
            Some st'
      in
      let taken =
        match refined c with
        | Some st' -> [ ((Cfg.block_at cfg t).Cfg.id, st') ]
        | None -> []
      in
      let not_taken =
        match refined (Absval.negate_cond c) with
        | Some st' -> fall_through st'
        | None -> []
      in
      taken @ not_taken
  | Insn.Call t ->
      (* the callee runs with the caller's state; the graft IR has no
         callee-save convention, so the post-return state is unknown *)
      ((Cfg.block_at cfg t).Cfg.id, st) :: fall_through (havoc_state ())
  | Insn.Ret | Insn.Halt | Insn.Callr _ -> []
  | _ -> fall_through st

(* ------------------------------ analysis ------------------------------ *)

let conservative_classes prog =
  Array.map
    (fun (i : Insn.t) ->
      match i with
      | Ld _ | St _ | Push _ | Pop _ -> Report.Access Report.Access_sandbox
      | Kcallr _ -> Report.Icall Report.Call_check
      | _ -> Report.Plain)
    prog

let reserved_register_diags conf prog =
  match conf.stage with
  | `Rewritten -> []
  | `Source ->
      let ds = ref [] in
      Array.iteri
        (fun k i ->
          if Insn.uses_scratch i then
            ds :=
              Report.error ~index:k
                (Printf.sprintf
                   "graft code uses reserved sandbox register r%d"
                   Insn.scratch)
              :: !ds)
        prog;
      List.rev !ds

let diag_order (d : Report.diag) =
  match d.Report.index with None -> -1 | Some k -> k

let widen_threshold = 4

let analyse conf prog =
  let n = Array.length prog in
  if n = 0 then
    {
      Report.classes = [||];
      diags = [ Report.error "empty program" ];
      degraded = false;
    }
  else
    let structural = reserved_register_diags conf prog in
    let invalid =
      Array.to_list
        (Array.mapi
           (fun k i ->
             match Insn.validate ~program_length:n i with
             | Ok () -> None
             | Error e -> Some (Report.error ~index:k e))
           prog)
      |> List.filter_map Fun.id
    in
    if invalid <> [] then
      {
        Report.classes = conservative_classes prog;
        diags = structural @ invalid;
        degraded = true;
      }
    else if Cfg.has_indirect_call prog then
      {
        Report.classes = conservative_classes prog;
        diags =
          structural
          @ [
              Report.warning
                "computed intra-graft control flow (callr): static \
                 verification degraded to run-time checks";
            ];
        degraded = true;
      }
    else begin
      let cfg = Cfg.build prog in
      let blocks = Cfg.blocks cfg in
      let nb = Array.length blocks in
      let states : state option array = Array.make nb None in
      let changes = Array.make nb 0 in
      let queued = Array.make nb false in
      let work = Queue.create () in
      let push b =
        if not queued.(b) then begin
          queued.(b) <- true;
          Queue.push b work
        end
      in
      states.(0) <- Some (entry_state conf);
      push 0;
      while not (Queue.is_empty work) do
        let b = Queue.pop work in
        queued.(b) <- false;
        match states.(b) with
        | None -> ()
        | Some st ->
            let edges = run_block conf quiet_sinks prog cfg st blocks.(b) in
            List.iter
              (fun (succ, st') ->
                match states.(succ) with
                | None ->
                    states.(succ) <- Some st';
                    push succ
                | Some old ->
                    (* widen only on retreating edges (every cycle contains
                       one, so the fixpoint terminates); forward merges keep
                       full join precision, which preserves branch
                       refinement inside loop bodies *)
                    let widen =
                      b >= succ && changes.(succ) >= widen_threshold
                    in
                    let merged, changed = merge_into ~widen old st' in
                    if changed then begin
                      changes.(succ) <- changes.(succ) + 1;
                      states.(succ) <- Some merged;
                      push succ
                    end)
              edges
      done;
      (* classification pass over the stable in-states *)
      let classes = Array.make n Report.Plain in
      let diags = ref (List.rev structural) in
      let add d = diags := d :: !diags in
      let has_call =
        Array.exists (function Insn.Call _ -> true | _ -> false) prog
      in
      Array.iter
        (fun (b : Cfg.block) ->
          match states.(b.Cfg.id) with
          | None ->
              for k = b.Cfg.first to b.Cfg.last do
                classes.(k) <- Report.Unreachable
              done;
              add
                (Report.warning ~index:b.Cfg.first
                   (if b.Cfg.first = b.Cfg.last then
                      "unreachable instruction"
                    else
                      Printf.sprintf "unreachable instructions %d..%d"
                        b.Cfg.first b.Cfg.last));
              (* dead kcall sites deserve their own warning: they never
                 execute, yet a reader of the code (or a naive flow-graph
                 extraction) would count them — Kflow's dataflow already
                 ignores them, since an unreachable block's in-state stays
                 bottom *)
              for k = b.Cfg.first to b.Cfg.last do
                match prog.(k) with
                | Insn.Kcall _ | Insn.Kcallr _ ->
                    add
                      (Report.warning ~index:k
                         "unreachable kernel-call site (dead code; excluded \
                          from the kcall-flow graph)")
                | _ -> ()
              done
          | Some st0 ->
              let st = copy_state st0 in
              let sinks =
                {
                  cls = (fun k c -> classes.(k) <- c);
                  diag = add;
                  lint_read =
                    (fun k r ->
                      add
                        (Report.warning ~index:k
                           (Printf.sprintf
                              "register r%d read before initialisation" r)));
                }
              in
              for k = b.Cfg.first to b.Cfg.last do
                (* stack-discipline lint: only meaningful without
                   intra-graft calls (a callee legitimately returns with
                   the caller's frame live) *)
                (if prog.(k) = Insn.Ret && not has_call then
                   match st.regs.(Insn.sp) with
                   | Absval.Stk i
                     when not (i.Absval.lo <= 0 && 0 <= i.Absval.hi) ->
                       add
                         (Report.warning ~index:k
                            (Format.asprintf
                               "stack-depth imbalance on a path to ret \
                                (sp = %a)"
                               Absval.pp st.regs.(Insn.sp)))
                   | _ -> ());
                exec_insn conf sinks st k prog.(k)
              done;
              (* fall-through past the end of the program *)
              if
                b.Cfg.last = n - 1
                &&
                match prog.(b.Cfg.last) with
                | Insn.Jmp _ | Insn.Ret | Insn.Halt | Insn.Callr _ -> false
                | _ -> true
              then
                add
                  (Report.error ~index:b.Cfg.last
                     "control can fall through past the end of the program"))
        blocks;
      let diags =
        List.stable_sort
          (fun a b -> compare (diag_order a) (diag_order b))
          (List.rev !diags)
      in
      { Report.classes; diags; degraded = false }
    end
