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

(* One slot per handle, -1 for a counter never bumped, so a zero add
   still lists the name. Each array lives in one domain (sinks are
   domain-local), so bumps never race. *)
type t = { mutable values : int array }

let create () : t = { values = Array.make 16 (-1) }

let add_h t h n =
  if n < 0 then invalid_arg "Counters.add_h: counters are monotonic";
  let v = t.values in
  let cap = Array.length v in
  if h < cap then begin
    let old = v.(h) in
    v.(h) <- (if old < 0 then n else old + n)
  end
  else begin
    let bigger = Array.make (max (2 * cap) (h + 1)) (-1) in
    Array.blit v 0 bigger 0 cap;
    bigger.(h) <- n;
    t.values <- bigger
  end

let incr_h t h = add_h t h 1

let value t name =
  match Mutex.protect reg_lock (fun () -> Hashtbl.find_opt reg_ids name) with
  | Some h when h < Array.length t.values -> Int.max 0 t.values.(h)
  | Some _ | None -> 0

let snapshot t =
  let named = ref [] in
  Array.iteri
    (fun h v -> if v >= 0 then named := (handle_name h, v) :: !named)
    t.values;
  List.sort compare !named

let clear t = Array.fill t.values 0 (Array.length t.values) (-1)
