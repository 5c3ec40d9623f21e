(** Closure-threaded translation of graft programs.

    {!Cpu.run} is a switch-dispatch interpreter: every instruction
    re-matches its constructor, re-looks-up its cycle cost and re-checks
    fuel and the abort poll. Translation does all of that once per
    compiled segment: the program is decomposed into basic blocks, each
    instruction becomes a pre-resolved OCaml closure (direct threading),
    hot superinstruction pairs are fused, and the fuel/poll checks are
    hoisted to block boundaries.

    Segments compile on first entry. At link time [translate] builds
    only the O(n) static tables (block leaders, per-pc cycle and length
    sums, the per-instruction slow closures) and a one-shot stub per
    compiled segment. On its first call a stub compiles its segment,
    writes the closure over itself and tail-calls it, so code a graft
    never runs is never compiled, and from the second entry on the
    driver runs exactly what an eager translation would. Two domains
    entering the same uncompiled segment at once each compile an
    equivalent closure; either store is correct, so one [t] is shared
    across a domain pool without a lock.

    The translation is {b bit-identical} to the interpreter at every
    observable point: [cycles], [insns_executed], [mem_accesses],
    [sandbox_cycles], [checkcall_cycles], registers, memory, [pc], the
    call stack and the final {!Cpu.outcome} all match {!Cpu.run} exactly —
    including mid-slice [Out_of_fuel] (the wrapper refuels and resumes at
    an arbitrary program counter) and abort-poll delivery within
    [poll_every] instructions. A block executes on the fast path only when
    its statically-known cost provably cannot cross the fuel limit or a
    poll point; otherwise execution falls back to per-instruction slow
    closures with interpreter-exact semantics. See DESIGN.md §11 for the
    equivalence argument. *)

type t
(** A translated program. Observably immutable (its only mutation is a
    stub replacing itself with the closure it compiled), so it is safe to
    reuse across invocations and domains and to cache per kernel keyed by
    graft signature. *)

type mode = Interp | Translated

val default_mode : mode ref
(** Execution mode newly created kernels pick up ([Translated] unless the
    CLI's [--mode interp] flag says otherwise). *)

val translate :
  ?costs:Costs.t -> ?safe:bool array -> ?xblock:bool -> Insn.t array -> t
(** Translate a validated program against a cost table: the static
    tables and first-entry stubs only (see above); no segment compiles
    until a run enters it. [costs] must equal the table the executing
    {!Cpu.t} was created with, or cycle accounting diverges from the
    interpreter.

    [xblock] (default [true]) widens superinstruction fusion across
    basic-block boundaries: a block that ends only because its successor
    is a branch target (an unconditional fallthrough into a join point)
    compiles through the join into one segment with a single tail
    fuel/poll check, capped at the poll interval. The join pc keeps its
    own tail for entries that arrive by branching, so every pc remains a
    valid entry point and the equivalence argument is unchanged.

    [safe] is a per-pc proof map (one entry per instruction): [true] at a
    [Ld]/[St] asserts a static verifier proved the access in-segment for
    the running configuration, so it can never fault. Such accesses are
    compiled as bare superinstructions — straight-line closures with no
    counter flush or pc store, like [Mov] — and fuse with a following
    non-faulting ALU op. Observable equivalence with the interpreter is
    preserved because a flush only becomes visible at a fault, kernel
    call, poll or block exit, and by assumption no elided access can
    fault. The caller is responsible for the map's soundness (the linker
    re-validates the proof's assumptions before passing it); a map whose
    length does not match the program is ignored. *)

val run : ?poll_every:int -> Cpu.env -> Cpu.t -> t -> Cpu.outcome
(** Drop-in replacement for [Cpu.run env cpu (source t)]. Starts from the
    cpu's current [pc] (0 on a fresh cpu; wherever the previous slice
    stopped after a refuel). Checked-mode cpus fall back to the
    interpreter: per-access bounds checking is the interpretation model
    the paper compares against, so translating it away would be
    measurement fraud. A cpu whose segment is malformed or not contained
    in its memory also falls back (the sandboxed-access
    superinstructions assume confinement; see DESIGN.md §16).

    Allocation-free in steady state on the translated path: the driver
    context is recycled through a per-domain pool, so a translated
    invocation that neither faults nor aborts performs zero minor-heap
    allocations (the [bench/wall.ml --check] allocation gate). *)

val source : t -> Insn.t array
(** The program the translation was built from. *)

(* Translation statistics, for [vino inspect] and the cache listing.
   [fused_pairs] and [elided_accesses] compile the block heads afresh
   into local counters on every call (translation itself compiles
   nothing), so they are for cold callers. *)

val block_count : t -> int
val fused_pairs : t -> int

val elided_accesses : t -> int
(** Accesses compiled bare (non-flushing) under a proof map. *)
