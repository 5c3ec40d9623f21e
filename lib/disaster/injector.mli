(** The misbehaviour catalogue (paper §2, Table 7's fault classes).

    Each injector is a seeded source-to-source rewrite that turns a healthy
    graft into a misbehaving variant, plus the containment outcome the
    kernel is expected to produce for it. The rewrites are IR-level
    ({!Vino_vm.Mutate}): they run before the MiSFIT toolchain, so the
    variant goes through exactly the sealing, verification, linking and
    wrapping a real graft would. *)

type kind =
  | Wild_store  (** store aimed outside the data segment *)
  | Bad_call  (** indirect call to a non-callable address *)
  | Infinite_loop  (** spin past the invocation's cycle budget *)
  | Lock_hog  (** hold a lock past its time-out *)
  | Resource_hog  (** allocate past the resource limit *)
  | Undo_bomb  (** fault with a raising entry planted in the undo log *)
  | Nested_fault  (** fault after committing a nested transaction *)
  | Flow_hijack
      (** individually-legal kcalls in a statically-illegal order, against
          a pinned witness flow graph (kcall-flow integrity) *)

val all : kind list
val name : kind -> string

type rig = {
  lock_kcall : string;  (** acquires the rig lock under the current txn *)
  alloc_kcall : string;  (** charges r1 words against the graft's limits *)
  state_kcall : string;  (** adds r1 to the rig cell, pushing its undo *)
  bad_undo_kcall : string;  (** pushes an undo entry that raises *)
  nest_kcall : string;
      (** begins a child txn, mutates the cell and takes the rig lock under
          it, then commits the child (merging both into the graft's txn) *)
  secret_id : int;  (** a registered but non-graft-callable function id *)
  kernel_words : int;  (** physical memory size (wild-store targets) *)
}
(** What a disaster site exposes for injectors to aim at. *)

type expectation =
  | Rejected  (** the linker's static check must refuse the load *)
  | Contained
      (** SFI defangs it: kernel memory intact, universal invariants hold;
          the graft may survive (confinement is not detection) or may still
          be removed if the confined damage breaks its own results *)
  | Recovered  (** transaction abort + forcible removal, default resumed *)

val expectation_name : expectation -> string

type post =
  | Word_untouched of int
      (** kernel word that must still hold its pre-injection value *)
  | Flow_violation_audited
      (** the audit trail must attribute a kcall-flow violation *)

type variant = {
  kind : kind;
  source : Vino_vm.Asm.item list;
  expect : expectation;
  posts : post list;
  wants_contender : bool;
      (** needs an innocent competing transaction (to drive the lock
          time-out path) *)
  note : string;  (** seeded parameters, for the report *)
  flow_witness : Vino_vm.Asm.item list option;
      (** when set, the campaign pins this source's kcall-flow table
          ([Kernel.Flow_pinned], via {!Site.pin_flow_witness}) before
          installing [source] — the attested protocol the hijacked variant
          violates *)
}

val apply : kind -> rng:Seed.t -> rig:rig -> Vino_vm.Asm.item list -> variant
(** Derive a misbehaving variant of [source]. Consumes draws from [rng];
    equal seeds give equal variants. *)
