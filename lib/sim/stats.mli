(** Measurement accumulators used by the experiment harness.

    The paper drops the top and bottom 10% of samples before computing means
    and standard deviations (§4); {!trimmed_mean} and {!trimmed_stddev}
    reproduce that. *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
val stddev : t -> float

val trimmed_mean : ?fraction:float -> t -> float
(** Mean after dropping the top and bottom [fraction] (default 0.10). *)

val trimmed_stddev : ?fraction:float -> t -> float
val min_value : t -> float
val max_value : t -> float
val percentile : t -> float -> float
