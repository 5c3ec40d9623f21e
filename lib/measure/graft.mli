(** What each of Tables 3–6's graft modules exports: {!Sc_readahead},
    {!Sc_evict}, {!Sc_sched} and {!Sc_crypt} keep only their graft's
    fixture, sources, entry facts, register setup, result check,
    per-iteration workload, paper column and increment labels, and measure
    it with Table 2's path rules from {!Rig} and {!Table.graft}. *)

module type S = sig
  val stats : ?iterations:int -> Path.t -> Vino_sim.Stats.t
  (** Elapsed virtual microseconds of each of [iterations] (default 300)
      invocations on one path, after 3 untimed warm-up runs. *)

  val measure : ?iterations:int -> Path.t -> float
  (** Trimmed mean of {!stats}. *)

  val measure_abort : ?iterations:int -> full:bool -> unit -> float
  (** Table 7: the abort alone ({!Rig.time_abort}) at the end of the null
      graft ([full:false]) or of the full safe graft ([full:true]). *)

  val paper_elapsed : (Path.t * float) list
  (** The paper's elapsed column for this graft. *)

  val table : ?iterations:int -> unit -> Table.row list
  (** The graft's table in {!Table.graft}'s layout. *)
end
