(* Order statistics and ledger arithmetic for the host-time benchmark.
   Kept free of any simulator dependency so the unit tests pin them on
   known inputs. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks: rank p/100 * (n - 1). *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Ledger.percentile: no samples";
  if p < 0. || p > 100. then invalid_arg "Ledger.percentile: p out of range";
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((rank -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 50.

(* Mean after dropping the top and bottom tenth of the samples, the
   paper's own summary (§4) *)
let trimmed_mean xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Ledger.trimmed_mean: no samples";
  let drop = n / 10 in
  let kept = Array.sub a drop (n - (2 * drop)) in
  Array.fold_left ( +. ) 0. kept /. float_of_int (Array.length kept)

(* The highest percentile that still has ten samples above it. With n
   samples, p = 100 (1 - 10 / n) puts the interpolation rank at
   n - 11 + 10 / n, so exactly ten samples lie strictly above its rank.
   [None] when there are too few samples to have one. *)
let beyond = 10

let tail xs =
  let n = List.length xs in
  if n <= beyond then None
  else
    let p = 100. *. (1. -. (float_of_int beyond /. float_of_int n)) in
    Some (p, percentile xs p)

type row = { layer : string; ns : int }

let unattributed = "unattributed"

(* Rows are integer nanoseconds so the closing row makes the sum exact:
   whatever the layer rows leave of [total] (possibly negative, when the
   per-layer estimates overshoot) is reported, never dropped. *)
let close ~total rows =
  let explained = List.fold_left (fun acc r -> acc + r.ns) 0 rows in
  rows @ [ { layer = unattributed; ns = total - explained } ]

let sum rows = List.fold_left (fun acc r -> acc + r.ns) 0 rows

let tracing = "trace"

(* The traced run's total is the untraced total, which the layer rows
   and the unattributed row share, plus a row for what tracing itself
   cost (the same batches timed with and without a sink). *)
let split ~traced ~untraced rows =
  close ~total:untraced rows @ [ { layer = tracing; ns = traced - untraced } ]

let share ~total r =
  if total = 0 then 0. else float_of_int r.ns /. float_of_int total

let find rows layer =
  match List.find_opt (fun r -> String.equal r.layer layer) rows with
  | Some r -> r.ns
  | None -> 0

(* The layer with the largest row, the closing rows excluded. *)
let largest rows =
  List.fold_left
    (fun best r ->
      if String.equal r.layer unattributed || String.equal r.layer tracing then
        best
      else
        match best with
        | Some b when b.ns >= r.ns -> best
        | _ -> Some r)
    None rows
