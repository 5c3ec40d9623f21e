(** Closure-threaded translation of graft programs.

    {!Cpu.run} is a switch-dispatch interpreter: every instruction
    re-matches its constructor, re-looks-up its cycle cost and re-checks
    fuel and the abort poll. Translation does all of that once per
    compiled window: each instruction becomes a pre-resolved OCaml
    closure (direct threading), hot superinstructions are fused, and the
    fuel/poll checks are hoisted to window entry.

    A window runs exactly [k] instructions from a pc, following
    straight-line code and, inside a straight-line self-loop, the loop's
    back edge. One table holds, per pc, one compiled slot and one cycle
    charge for each window length. At link time [translate] builds only
    the O(n) static tables (block leaders and one cycle-cost prefix sum);
    {!run} builds a pc's row of windows the first time it dispatches from
    that pc, and compiles a window the first time it runs it, so code a
    graft never runs is never compiled, and from the second entry on a
    run executes exactly what an eager translation would. Two domains
    entering the same uncompiled window at once each compile an
    equivalent closure; either store is correct, so one [t] is shared
    across a domain pool without a lock.

    The translation is {b bit-identical} to the interpreter at every
    observable point: [cycles], [insns_executed], [mem_accesses],
    [sandbox_cycles], [checkcall_cycles], registers, memory, [pc], the
    call stack and the final {!Cpu.outcome} all match {!Cpu.run} exactly —
    including mid-slice [Out_of_fuel] (the wrapper refuels and resumes at
    an arbitrary program counter) and abort-poll delivery within
    [poll_every] instructions. Before each dispatch the driver picks the
    window length so that no window crosses a poll point and, at a fuel
    edge, so that the window holds exactly the instructions the
    interpreter would still start. See DESIGN.md §11 for the equivalence
    argument. *)

type t
(** A translated program. Observably immutable (its only mutation is
    {!run} storing a window's row and closures over their sentinels on
    first entry), so it is safe to reuse across invocations and domains
    and to cache per kernel keyed by graft signature. *)

type mode = Interp | Translated

val default_mode : mode ref
(** Execution mode newly created kernels pick up ([Translated] unless the
    CLI's [--mode interp] flag says otherwise). *)

val translate : ?costs:Costs.t -> ?safe:bool array -> Insn.t array -> t
(** Translate a validated program against a cost table: the static
    tables only, every window left uncompiled (see above); no window
    compiles until a run enters it. [costs] must equal the table the
    executing {!Cpu.t} was created with, or cycle accounting diverges
    from the interpreter.

    [safe] is a per-pc map of proven accesses (one entry per
    instruction): [true] at a [Ld]/[St] asserts a static verifier proved
    the access in-segment for the running configuration, so it can never
    fault. Such accesses are
    compiled as bare superinstructions — straight-line closures with no
    counter flush or pc store, like [Mov] — and fuse with a following
    non-faulting ALU op. Observable equivalence with the interpreter is
    preserved because a flush only becomes visible at a fault, kernel
    call, poll or block exit, and by assumption no elided access can
    fault. The caller is responsible for the map's soundness (the linker
    passes only what its own analysis proved for the segment and entry
    facts the code runs under); a map whose length does not match the
    program is ignored. *)

val run : ?poll_every:int -> Cpu.env -> Cpu.t -> t -> Cpu.outcome
(** Drop-in replacement for [Cpu.run env cpu (source t)]. Starts from the
    cpu's current [pc] (0 on a fresh cpu; wherever the previous slice
    stopped after a refuel). Checked-mode cpus fall back to the
    interpreter: per-access bounds checking is the interpretation model
    the paper compares against, so translating it away would be
    measurement fraud. A cpu whose segment is malformed or not contained
    in its memory also falls back (the sandboxed-access
    superinstructions assume confinement; see DESIGN.md §16), and so
    does a program that names an out-of-range register.

    Allocation-free in steady state on the translated path: the driver
    context is recycled through a per-domain pool, so a translated
    invocation that neither faults nor aborts performs zero minor-heap
    allocations (the [bench/wall.ml --check] allocation gate). *)

val source : t -> Insn.t array
(** The program the translation was built from. *)

(* Translation statistics, for [vino inspect] and the cache listing.
   [fused_pairs] and [elided_accesses] compile each block head's full
   straight-line window afresh into local counters on every call
   (translation itself compiles nothing), so they are for cold callers. *)

val block_count : t -> int
val fused_pairs : t -> int

val elided_accesses : t -> int
(** Accesses compiled bare (non-flushing) under a [safe] map. *)
