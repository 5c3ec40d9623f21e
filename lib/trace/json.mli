(** A deliberately tiny JSON layer (the toolchain ships no JSON
    library): enough to emit the bench/trace reports and to parse them
    back in tests and the host benchmark. Numbers are kept as either
    exact ints (cycle counts) or floats. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val escape : string -> string
(** The body of a JSON string literal, without the surrounding quotes:
    double quotes and backslashes get a backslash, newline, carriage
    return and tab their two-character escapes, other bytes below 0x20 a
    six-character [\u00XX] escape, and every other byte is copied. *)

val to_string : t -> string
(** Multi-line, two-space indent, stable key order as given. *)

val of_string : string -> (t, string) result
(** Strict enough for round-tripping our own output; errors carry an
    offset. *)

(** Accessors; all total. *)

val member : string -> t -> t option
val to_list : t -> t list
val int_value : t -> int option
(** Ints, and floats with no fractional part. *)
