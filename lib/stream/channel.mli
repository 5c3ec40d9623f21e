(** Stream graft points (§4.4): transforming data as it crosses the kernel
    boundary.

    A channel models one copy-to-user data path. Ungrafted, [transfer] is a
    plain [bcopy] (the paper's 105 us per 8 KB). With a stream graft
    installed, the kernel copies the source into the graft's input area,
    the graft transforms it into its output area (encryption, compression,
    logging, ...), and the kernel hands the output area's contents to the
    destination. Because stream grafts are almost entirely loads and
    stores, they are the worst case for software fault isolation. *)

type t

val buffer_words_8kb : int
(** 2048 words: the paper's 8 KB test buffer. *)

val bcopy_cycles_per_word : int
(** Calibrated so an 8 KB bcopy costs the paper's ~105 us. *)

val create :
  Vino_core.Kernel.t ->
  name:string ->
  ?buffer_words:int ->
  ?budget:int ->
  unit ->
  t
(** [buffer_words] bounds one transfer (default 8 KB); [budget] bounds one
    graft invocation's cycles. *)

val point : t -> (int array, int array) Vino_core.Graft_point.t

val copyin : t -> Vino_vm.Cpu.t -> int array -> unit
(** [copyin t cpu data] is the graft point's setup: the kernel's copyin
    of one transfer. It charges a bcopy of the first
    [min (Array.length data) buffer_words] words, copies them to the
    input area at the base of [cpu]'s segment and sets the argument
    registers: r1 = input area, r2 = output area ([buffer_words] further
    on), r3 = word count. *)

val grafted : t -> bool

val install :
  t ->
  cred:Vino_core.Cred.t ->
  ?limits:Vino_txn.Rlimit.t ->
  Vino_misfit.Image.t ->
  (unit, string) result

val transfer : t -> cred:Vino_core.Cred.t -> int array -> int array
(** Move one buffer across the boundary, transformed by the graft if one is
    installed. Must run inside an engine process. *)

val transfers : t -> int
val name : t -> string
