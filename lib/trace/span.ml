type kind =
  | Graft_invoke
  | Dispatch
  | Sfi_sandbox
  | Sfi_checkcall
  | Txn_begin
  | Txn_commit
  | Txn_abort
  | Undo_replay
  | Lock_acquire
  | Lock_wait
  | Lock_timeout

let kind_name = function
  | Graft_invoke -> "graft.invoke"
  | Dispatch -> "graft.dispatch"
  | Sfi_sandbox -> "sfi.sandbox"
  | Sfi_checkcall -> "sfi.checkcall"
  | Txn_begin -> "txn.begin"
  | Txn_commit -> "txn.commit"
  | Txn_abort -> "txn.abort"
  | Undo_replay -> "undo.replay"
  | Lock_acquire -> "lock.acquire"
  | Lock_wait -> "lock.wait"
  | Lock_timeout -> "lock.timeout"

type t = { kind : kind; label : string; start : int; dur : int }

let pp ppf t =
  Format.fprintf ppf "[%10d +%-8d] %-14s %s" t.start t.dur (kind_name t.kind)
    t.label
