(** Virtual-time measurement: run a thunk repeatedly inside an engine
    process and sample the elapsed virtual microseconds per iteration,
    with the paper's 10% two-sided trimming available via
    {!Vino_sim.Stats}. *)

val samples :
  Vino_core.Kernel.t ->
  ?warmup:int ->
  ?iterations:int ->
  (int -> unit) ->
  Vino_sim.Stats.t
(** [samples kernel f] runs [f 0 .. f (iterations-1)] (default 300, after
    [warmup] (default 3) untimed runs) inside a fresh engine process,
    drives the engine to completion, and returns per-iteration elapsed
    virtual time in microseconds.
    @raise Invalid_argument if [iterations < 1]: the mean of no samples
    would read as a zero-cost path.
    @raise Failure if any engine process crashed. *)

val mean_us :
  Vino_core.Kernel.t -> ?warmup:int -> ?iterations:int -> (int -> unit) -> float
(** Trimmed mean of {!samples}. *)
