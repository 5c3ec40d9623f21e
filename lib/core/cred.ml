type t = { uid : int; user : string; limits : Vino_txn.Rlimit.t }

let root = { uid = 0; user = "root"; limits = Vino_txn.Rlimit.unlimited () }

(* Atomic: credentials may be minted from parallel worker domains
   (Vino_par.Pool); uids must stay unique. *)
let next_uid = Atomic.make 1000

let user name ~limits =
  { uid = Atomic.fetch_and_add next_uid 1; user = name; limits }

let is_privileged t = t.uid = 0
let pp ppf t = Format.fprintf ppf "%s(%d)" t.user t.uid
