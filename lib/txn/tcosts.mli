(** Cycle charges for kernel transaction services.

    These constants calibrate the simulator's kernel paths against the
    paper's measurements (Tables 3-6 and §4.5/§4.6); they are inputs to the
    model. Everything *relative* — per-path increments, scaling with lock
    count, the abort-cost equation [35us + 10us*L + c*G] — emerges from the
    code paths that consume them. All values are cycles at 120 MHz. *)

type t = {
  txn_begin : int;  (** allocate txn object, associate with thread (~36 us) *)
  txn_commit : int;  (** free undo stack and txn object (~30 us) *)
  txn_abort : int;  (** constant abort overhead, 32-38 us (§4.5) *)
  nested_begin : int;  (** child txn object allocation (cheaper) *)
  nested_commit : int;  (** merge undo stack and locks into parent *)
  mutex_acquire : int;  (** conventional kernel mutex (~14 us; a transaction lock
      then costs ~33 us as in Table 3) *)
  mutex_release : int;
  txn_lock_extra : int;
      (** extra cost of a transaction lock over a mutex (~19 us, §4.6) *)
  lock_release_abort : int;  (** releasing one lock during abort (~10 us) *)
  undo_push : int;  (** pushing one undo record *)
  policy_indirection : int;
      (** one encapsulated policy decision point (a ~35-cycle function call,
          §6 / Fig 5) *)
  limit_check : int;  (** one resource-limit debit/credit *)
}

val default : t

val us : float -> int
(** Convenience: microseconds to cycles at the simulated clock rate. *)
