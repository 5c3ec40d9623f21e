(** Rendering of paper-versus-measured tables. *)

type row = {
  label : string;
  paper_us : float option;  (** the paper's reported value, if any *)
  measured_us : float;
  incremental : bool;  (** an overhead line rather than an elapsed line *)
}

val elapsed : ?paper:float -> string -> float -> row
val overhead : ?paper:float -> string -> float -> row

val render : Format.formatter -> title:string -> ?notes:string -> row list -> unit
val print : title:string -> ?notes:string -> row list -> unit

val graft :
  paper:(Path.t * float) list ->
  increments:(Path.t * string) list ->
  (Path.t -> float) ->
  row list
(** One graft's table in Table 2's layout (Tables 3–6). Measures every
    path of {!Path.all} with [measure] and lists each path's elapsed row in
    the order Base, VINO, Null, Unsafe, Safe, Verified, FlowChecked, Abort,
    with its value from [paper] when there is one.

    A path that [increments] labels comes after its increment over the
    path before it in Table 2's chain (Safe, for Abort); the increment's
    paper value is the difference of the two paths' [paper] values.
    Verified and FlowChecked each come after their increment above Safe:
    the MiSFIT cost the static verifier recovers, and the cost of the
    kcall-flow check. *)

val to_json :
  name:string ->
  title:string ->
  ?counters:(string * int) list ->
  row list ->
  Vino_trace.Json.t
(** Schema ["vino-bench-v1"]: [{schema; name; title; rows; counters}],
    one row object per table line with [label], [paper_us] (null when the
    paper gives none), measured [us], the equivalent virtual [cycles],
    and the [incremental] flag. See DESIGN.md §10. *)

val write_json :
  file:string ->
  name:string ->
  title:string ->
  ?counters:(string * int) list ->
  row list ->
  unit
(** {!to_json} serialised to [file]. *)
