(* Samples live in a growable float array (amortised O(1) add, no
   per-sample consing); sorted queries ([trimmed]/[percentile]) go
   through a cached sorted copy invalidated on [add], so a burst of
   percentile reads after a run sorts once instead of once per call.

   Numerical note: the previous implementation kept samples as a consed
   list (newest first) and summed in list order. Summation order matters
   for float rounding, so [mean]/[stddev] iterate newest-to-oldest and
   the trimmed/sorted aggregates iterate ascending — bit-for-bit the old
   results. The QCheck suite in test/test_stats.ml pins this against a
   reference list implementation. *)

type t = {
  mutable data : float array;
  mutable n : int;
  mutable sorted : float array option; (* cache over data[0..n-1] *)
}

let create () = { data = [||]; n = 0; sorted = None }

let add t x =
  let cap = Array.length t.data in
  if t.n = cap then begin
    let fresh = Array.make (max 8 (2 * cap)) 0. in
    Array.blit t.data 0 fresh 0 t.n;
    t.data <- fresh
  end;
  t.data.(t.n) <- x;
  t.n <- t.n + 1;
  t.sorted <- None

let count t = t.n

(* newest first, like the old list fold *)
let sum_newest_first t =
  let acc = ref 0. in
  for k = t.n - 1 downto 0 do
    acc := !acc +. t.data.(k)
  done;
  !acc

let mean t = if t.n = 0 then 0. else sum_newest_first t /. float_of_int t.n

let stddev t =
  if t.n <= 1 then 0.
  else begin
    let m = mean t in
    let sq = ref 0. in
    for k = t.n - 1 downto 0 do
      sq := !sq +. ((t.data.(k) -. m) ** 2.)
    done;
    sqrt (!sq /. float_of_int (t.n - 1))
  end

(* Heap sort in [Float.compare] order, which is [compare]'s order on
   floats. Typed to float arrays, it reads and writes unboxed floats;
   the polymorphic [Array.sort compare] boxes every element it reads. *)
let rec sift_down (a : float array) i n =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c =
      if l + 1 < n && Float.compare a.(l) a.(l + 1) < 0 then l + 1 else l
    in
    if Float.compare a.(i) a.(c) < 0 then begin
      let x = a.(i) in
      a.(i) <- a.(c);
      a.(c) <- x;
      sift_down a c n
    end
  end

let sort_floats a =
  let n = Array.length a in
  for i = (n / 2) - 1 downto 0 do
    sift_down a i n
  done;
  for last = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift_down a 0 last
  done

let sorted_view t =
  match t.sorted with
  | Some s -> s
  | None ->
      let s = Array.sub t.data 0 t.n in
      sort_floats s;
      t.sorted <- Some s;
      s

(* mean/stddev over sorted[lo..hi-1], summed ascending like the old
   sorted-list folds *)
let mean_range s lo hi =
  if hi <= lo then 0.
  else begin
    let acc = ref 0. in
    for k = lo to hi - 1 do
      acc := !acc +. s.(k)
    done;
    !acc /. float_of_int (hi - lo)
  end

let stddev_range s lo hi =
  if hi - lo <= 1 then 0.
  else begin
    let m = mean_range s lo hi in
    let sq = ref 0. in
    for k = lo to hi - 1 do
      sq := !sq +. ((s.(k) -. m) ** 2.)
    done;
    sqrt (!sq /. float_of_int (hi - lo - 1))
  end

let trim_bounds ?(fraction = 0.10) t =
  let drop = int_of_float (fraction *. float_of_int t.n) in
  (drop, t.n - drop)

let trimmed_mean ?fraction t =
  let lo, hi = trim_bounds ?fraction t in
  mean_range (sorted_view t) lo hi

let trimmed_stddev ?fraction t =
  let lo, hi = trim_bounds ?fraction t in
  stddev_range (sorted_view t) lo hi

(* [Stdlib.min]/[max]'s rule, typed to floats so nothing is boxed
   ([Float.min]/[max] differ on -0.0 and nan) *)
let min_value t =
  let acc = ref infinity in
  for k = 0 to t.n - 1 do
    let a = !acc and x = t.data.(k) in
    acc := if a <= x then a else x
  done;
  !acc

let max_value t =
  let acc = ref neg_infinity in
  for k = 0 to t.n - 1 do
    let a = !acc and x = t.data.(k) in
    acc := if a >= x then a else x
  done;
  !acc

let percentile t p =
  if t.n = 0 then 0.
  else begin
    let sorted = sorted_view t in
    let n = t.n in
    let rank = p /. 100. *. float_of_int (n - 1) in
    let low = int_of_float rank in
    let high = min (low + 1) (n - 1) in
    let frac = rank -. float_of_int low in
    (sorted.(low) *. (1. -. frac)) +. (sorted.(high) *. frac)
  end
