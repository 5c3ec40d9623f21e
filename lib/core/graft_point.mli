(** Function graft points (§3.4): replacement of a single member function on
    a kernel object.

    A graft point carries the default kernel implementation, the class
    designer's marshalling of arguments into graft registers/memory, and the
    result extraction *with validation* — the kernel never trusts a value
    returned by a graft (e.g. the page-eviction point verifies the returned
    page belongs to the VAS and is not wired, §4.2.1).

    Invocation follows the paper's wrapper protocol, which
    {!Wrapper.invoke} runs: begin a transaction, run the graft under SFI
    with sliced preemption, validate the result, commit — and on any
    failure (fault, time-out, quota, validation, abort) roll the
    transaction back. The graft point then forcibly removes the graft and
    falls back to the default implementation (§3.6). *)

type ('a, 'b) t

val create :
  name:string ->
  ?restricted:bool ->
  ?watchdog:int ->
  ?indirection_cost:int ->
  ?check_cost:int ->
  ?budget:int ->
  default:('a -> 'b) ->
  setup:(Vino_vm.Cpu.t -> 'a -> unit) ->
  read_result:(Vino_vm.Cpu.t -> 'a -> ('b, string) result) ->
  unit ->
  ('a, 'b) t
(** [restricted] marks global policy points graftable only by privileged
    users (Rule 5). [watchdog] (cycles) bounds one invocation's wall time —
    the defence against covert denial of service (§2.5).
    [indirection_cost] is the VINO-path dispatch cost (default 1 us);
    [check_cost] is charged for result verification. A graft runs in
    {!Wrapper.default_slice}-cycle slices, within [budget] cycles
    (default {!Wrapper.default_budget}). *)

val name : ('a, 'b) t -> string
val restricted : ('a, 'b) t -> bool
val grafted : ('a, 'b) t -> bool
val default_fn : ('a, 'b) t -> 'a -> 'b

val replace :
  ('a, 'b) t ->
  Kernel.t ->
  cred:Cred.t ->
  ?shared_words:int ->
  ?heap_words:int ->
  ?limits:Vino_txn.Rlimit.t ->
  Vino_misfit.Image.t ->
  (unit, string) result
(** Install a graft (Figure 1's [replace]). [shared_words] reserves a
    window at the base of the graft segment that the installing application
    and the graft share; [limits] are the graft's resource limits (default:
    zero — the installer must transfer or delegate, §3.2). The linker
    analyses the image with no entry facts, since [setup] may put
    anything in the argument registers, and refuses a memory access it
    cannot prove in-segment unless [cred] is privileged. Replaces any
    previous graft. *)

val shared_base : ('a, 'b) t -> int option
(** Base address of the shared window, once grafted. *)

val segment : ('a, 'b) t -> Vino_vm.Mem.segment option

val remove : ('a, 'b) t -> Kernel.t -> unit
(** Uninstall and free the segment (also done automatically on abort). *)

val invoke : ('a, 'b) t -> Kernel.t -> cred:Cred.t -> 'a -> 'b
(** Call through the graft point: the graft if installed (transactional,
    validated, with fallback to the default on failure), the default
    otherwise. Must run inside an engine process. *)

(* Statistics. *)

val invocations : ('a, 'b) t -> int
val graft_runs : ('a, 'b) t -> int
val graft_failures : ('a, 'b) t -> int
val last_failure : ('a, 'b) t -> string option

val saver : ('a, 'b) t -> unit -> unit -> unit
(** [saver t ()] captures the installed graft and the statistics; the
    returned thunk restores them (re-runnable). For kernel snapshots —
    register with {!Kernel.on_snapshot} wherever the point's kernel is
    in scope. *)
