(** Stream graft sources (§4.4). All follow the channel convention:
    r1 = input area address, r2 = output area address, r3 = word count. *)

val xor_encrypt_source : key:int -> Vino_vm.Asm.item list
(** The paper's measured graft: trivial xor-style encryption of each word
    from input to output — not computationally intensive, which makes it a
    worst case for SFI overhead (almost all loads and stores). *)

val copy_source : Vino_vm.Asm.item list
(** The most trivial stream graft: copy input to output untransformed; the
    highest possible store ratio. *)
