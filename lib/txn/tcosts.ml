type t = {
  txn_begin : int;
  txn_commit : int;
  txn_abort : int;
  nested_begin : int;
  nested_commit : int;
  mutex_acquire : int;
  mutex_release : int;
  txn_lock_extra : int;
  lock_release_abort : int;
  undo_push : int;
  policy_indirection : int;
  limit_check : int;
}

let us = Vino_vm.Costs.cycles_of_us

let default =
  {
    txn_begin = us 36.;
    txn_commit = us 28.;
    txn_abort = us 35.;
    nested_begin = us 9.;
    nested_commit = us 7.;
    mutex_acquire = us 14.;
    mutex_release = us 5.;
    txn_lock_extra = us 19.;
    lock_release_abort = us 10.;
    undo_push = us 1.5;
    policy_indirection = 35;
    limit_check = us 0.5;
  }
