(** Simulated disk, modelled on the paper's test platform drive (a 5400 RPM
    Fujitsu M2694ESA with ~9.5 ms average seek, 1080 MB formatted capacity
    and a 64 KB buffer).

    Requests are served by a disk process in FIFO order (an elevator
    variant is available as an ablation). Service time is seek + rotation +
    transfer for a random access, transfer-only for a sequential one (track
    buffer). The random service time is ~16 ms, matching the
    paper's "benefit of avoiding a page fault is approximately 18 ms". *)

type scheduling = Fifo | Elevator

type t

val create : Vino_sim.Engine.t -> ?scheduling:scheduling -> unit -> t
(** A drive of 270,000 4 KB blocks (1080 MB). Its seek time grows with
    the square root of the distance, from 1 ms track-to-track to 9.5 ms at
    half-stroke. *)

type kind = Read | Write

val submit : t -> kind -> block:int -> on_complete:(unit -> unit) -> unit
(** Enqueue a request; the callback runs (in the disk process) when it
    completes. *)

val read : t -> block:int -> unit
(** Blocking read: submit and wait. Must run inside an engine process. *)

val write : t -> block:int -> unit

val service_time : t -> block:int -> int
(** Cycles the next request for [block] would take, given the current head
    position (exposed for tests). *)

(* Statistics. *)

val requests_served : t -> int
val writes_served : t -> int
val sequential_hits : t -> int
val queue_depth : t -> int

val saver : t -> unit -> unit -> unit
(** [saver t ()] captures the request queue, head position, statistics
    and the service wait queue; the returned thunk restores them
    (re-runnable). For kernel snapshots. *)
