type resource = Memory_words | Net_packets

let all_resources = [ Memory_words; Net_packets ]

let resource_name = function
  | Memory_words -> "memory-words"
  | Net_packets -> "net-packets"

let index = function Memory_words -> 0 | Net_packets -> 1

type account = { limits : int array; uses : int array }
type t = { account : account }

let n = List.length all_resources

let create ?(memory_words = 0) ?(net_packets = 0) () =
  let limits = Array.make n 0 in
  limits.(index Memory_words) <- memory_words;
  limits.(index Net_packets) <- net_packets;
  { account = { limits; uses = Array.make n 0 } }

let zero () = create ()

let unlimited () =
  let big = max_int / 2 in
  create ~memory_words:big ~net_packets:big ()

let delegate t = { account = t.account }
let same_account a b = a.account == b.account
let limit t r = t.account.limits.(index r)
let used t r = t.account.uses.(index r)
let available t r = limit t r - used t r

let request t r amount =
  if amount <= 0 then invalid_arg "Rlimit.request: amount must be positive";
  let k = index r in
  if t.account.uses.(k) + amount > t.account.limits.(k) then Error `Denied
  else begin
    t.account.uses.(k) <- t.account.uses.(k) + amount;
    Ok ()
  end

let release t r amount =
  if amount <= 0 then invalid_arg "Rlimit.release: amount must be positive";
  let k = index r in
  t.account.uses.(k) <- max 0 (t.account.uses.(k) - amount)

let transfer ~src ~dst r amount =
  if amount <= 0 then invalid_arg "Rlimit.transfer: amount must be positive";
  if same_account src dst then Error `Denied
  else
    let k = index r in
    if src.account.limits.(k) - amount < src.account.uses.(k) then
      Error `Denied
    else begin
      src.account.limits.(k) <- src.account.limits.(k) - amount;
      dst.account.limits.(k) <- dst.account.limits.(k) + amount;
      Ok ()
    end

(* Child accounts are funded by moving limit out of the parent, so the
   sum of limits across a tenant tree is invariant: a runaway child can
   never spend more than the slice it was granted, and the parent's
   remaining headroom shrinks by exactly that slice. On any denial the
   already-moved resources are returned and the parent is untouched. *)
let derive ~parent ?(memory_words = 0) ?(net_packets = 0) () =
  let child = create () in
  let wants = [ (Memory_words, memory_words); (Net_packets, net_packets) ] in
  let rec fund granted = function
    | [] -> Ok child
    | (_, 0) :: rest -> fund granted rest
    | (r, amount) :: rest -> (
        if amount < 0 then invalid_arg "Rlimit.derive: negative amount";
        match transfer ~src:parent ~dst:child r amount with
        | Ok () -> fund ((r, amount) :: granted) rest
        | Error `Denied ->
            List.iter
              (fun (r, amount) ->
                match transfer ~src:child ~dst:parent r amount with
                | Ok () -> ()
                | Error `Denied -> assert false)
              granted;
            Error `Denied)
  in
  fund [] wants

let saver t () =
  let limits = Array.copy t.account.limits
  and uses = Array.copy t.account.uses in
  fun () ->
    Array.blit limits 0 t.account.limits 0 n;
    Array.blit uses 0 t.account.uses 0 n

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-13s %d/%d@ " (resource_name r) (used t r)
        (limit t r))
    all_resources;
  Format.fprintf ppf "@]"
