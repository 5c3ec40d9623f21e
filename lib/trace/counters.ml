(* Handles are process-wide: interning "txn.begins" in any domain or
   table yields the same small integer, so a handle baked into a module
   at load time indexes every sink's flat array. The registry is tiny
   (dozens of names, touched once per name) and mutex-protected; the
   hot path never takes the lock. *)
type handle = int

let reg_lock = Mutex.create ()
let reg_ids : (string, int) Hashtbl.t = Hashtbl.create 64
let reg_names = ref (Array.make 16 "")
let reg_count = ref 0

let handle name =
  Mutex.protect reg_lock (fun () ->
      match Hashtbl.find_opt reg_ids name with
      | Some id -> id
      | None ->
          let id = !reg_count in
          let cap = Array.length !reg_names in
          if id = cap then begin
            let bigger = Array.make (2 * cap) "" in
            Array.blit !reg_names 0 bigger 0 cap;
            reg_names := bigger
          end;
          !reg_names.(id) <- name;
          Hashtbl.add reg_ids name id;
          reg_count := id + 1;
          id)

let handle_name h = Mutex.protect reg_lock (fun () -> !reg_names.(h))

(* [fast] batches handle increments as plain array adds; they fold into
   the string-keyed table the first time anything reads it ([flush]).
   Each table lives in one domain (sinks are domain-local), so the two
   representations never race. *)
type t = { tbl : (string, int ref) Hashtbl.t; mutable fast : int array }

let create () : t = { tbl = Hashtbl.create 64; fast = Array.make 16 0 }

let tbl_incr tbl ?(by = 1) name =
  if by < 0 then invalid_arg "Counters.incr: counters are monotonic";
  match Hashtbl.find_opt tbl name with
  | Some r -> r := !r + by
  | None -> Hashtbl.add tbl name (ref by)

let incr t ?by name = tbl_incr t.tbl ?by name

let add_h t h n =
  if n < 0 then invalid_arg "Counters.add_h: counters are monotonic";
  if n = 0 then
    (* A zero add must still materialize the counter, exactly as the
       string path does — [flush] cannot tell a zero-added slot from an
       untouched one, so it lands in the table here instead. *)
    tbl_incr t.tbl ~by:0 (handle_name h)
  else begin
    let f = t.fast in
    let cap = Array.length f in
    if h < cap then f.(h) <- f.(h) + n
    else begin
      let bigger = Array.make (max (2 * cap) (h + 1)) 0 in
      Array.blit f 0 bigger 0 cap;
      bigger.(h) <- n;
      t.fast <- bigger
    end
  end

let incr_h t h = add_h t h 1

let flush t =
  let f = t.fast in
  for h = 0 to Array.length f - 1 do
    let v = f.(h) in
    if v <> 0 then begin
      tbl_incr t.tbl ~by:v (handle_name h);
      f.(h) <- 0
    end
  done

let value t name =
  flush t;
  match Hashtbl.find_opt t.tbl name with Some r -> !r | None -> 0

let snapshot t =
  flush t;
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.tbl []
  |> List.sort compare

let clear t =
  Hashtbl.reset t.tbl;
  Array.fill t.fast 0 (Array.length t.fast) 0
