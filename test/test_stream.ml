(* Tests for stream channels and their grafts. *)

module Engine = Vino_sim.Engine
module Kernel = Vino_core.Kernel
module Cred = Vino_core.Cred
module Rlimit = Vino_txn.Rlimit
module Channel = Vino_stream.Channel
module Grafts = Vino_stream.Grafts

let app = Cred.user "stream-test" ~limits:(Rlimit.unlimited ())

let fixture ?buffer_words () =
  let kernel = Kernel.create ~mem_words:(1 lsl 16) () in
  let channel = Channel.create kernel ~name:"chan" ?buffer_words () in
  (kernel, channel)

let transfer_in_kernel kernel channel data =
  let out = ref [||] in
  ignore
    (Engine.spawn kernel.Kernel.engine ~name:"xfer" (fun () ->
         out := Channel.transfer channel ~cred:app data));
  Kernel.run kernel;
  (match Engine.failures kernel.Kernel.engine with
  | [] -> ()
  | (name, exn) :: _ ->
      Alcotest.failf "process %s: %s" name (Printexc.to_string exn));
  !out

let install_exn kernel channel source =
  let image =
    match Kernel.seal kernel (Vino_vm.Asm.assemble_exn source) with
    | Ok i -> i
    | Error e -> Alcotest.fail e
  in
  match Channel.install channel ~cred:app image with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_ungrafted_is_identity () =
  let kernel, channel = fixture ~buffer_words:64 () in
  let data = Array.init 64 (fun k -> k * 3) in
  let out = transfer_in_kernel kernel channel data in
  Alcotest.(check (array int)) "plain bcopy" data out

let test_xor_encrypts_and_decrypts () =
  let kernel, channel = fixture ~buffer_words:64 () in
  install_exn kernel channel (Grafts.xor_encrypt_source ~key:0xAB);
  let data = Array.init 64 (fun k -> k * 7) in
  let encrypted = transfer_in_kernel kernel channel data in
  Alcotest.(check bool) "actually transformed" true (encrypted <> data);
  Array.iteri
    (fun k v -> Alcotest.(check int) "xor applied" (data.(k) lxor 0xAB) v)
    encrypted;
  (* symmetric: transferring the ciphertext recovers the plaintext *)
  let decrypted = transfer_in_kernel kernel channel encrypted in
  Alcotest.(check (array int)) "round trip" data decrypted

let test_copy_graft_is_identity () =
  let kernel, channel = fixture ~buffer_words:32 () in
  install_exn kernel channel Grafts.copy_source;
  let data = Array.init 32 (fun k -> 1000 - k) in
  Alcotest.(check (array int)) "copy graft" data
    (transfer_in_kernel kernel channel data)

let test_sfi_slows_but_preserves () =
  let kernel, channel = fixture ~buffer_words:256 () in
  let data = Array.init 256 (fun k -> k) in
  let obj =
    Vino_vm.Asm.assemble_exn (Grafts.xor_encrypt_source ~key:0x11)
  in
  (* unsafe-sealed graft: unsandboxed code loads only for a privileged
     installer *)
  (match
     Channel.install channel ~cred:Vino_core.Cred.root
       (Kernel.seal_unsafe kernel obj)
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let t0 = ref 0 in
  ignore
    (Engine.spawn kernel.Kernel.engine (fun () ->
         let a = Engine.now kernel.Kernel.engine in
         ignore (Channel.transfer channel ~cred:app data);
         t0 := Engine.now kernel.Kernel.engine - a));
  Kernel.run kernel;
  (* safe-sealed graft *)
  let kernel2, channel2 = fixture ~buffer_words:256 () in
  install_exn kernel2 channel2 (Grafts.xor_encrypt_source ~key:0x11);
  let t1 = ref 0 in
  let out = ref [||] in
  ignore
    (Engine.spawn kernel2.Kernel.engine (fun () ->
         let a = Engine.now kernel2.Kernel.engine in
         out := Channel.transfer channel2 ~cred:app data;
         t1 := Engine.now kernel2.Kernel.engine - a));
  Kernel.run kernel2;
  Alcotest.(check bool) "SFI costs more" true (!t1 > !t0);
  Alcotest.(check bool) "SFI under ~2.5x of unsafe" true
    (float_of_int !t1 < 2.5 *. float_of_int !t0);
  Array.iteri
    (fun k v -> Alcotest.(check int) "same result" (data.(k) lxor 0x11) v)
    !out

let test_oversized_transfer_rejected () =
  let kernel, channel = fixture ~buffer_words:16 () in
  ignore kernel;
  Alcotest.check_raises "too big"
    (Invalid_argument "Channel.transfer: buffer too large") (fun () ->
      ignore (Channel.transfer channel ~cred:app (Array.make 17 0)))

let test_crashing_stream_graft_falls_back_to_bcopy () =
  let kernel, channel = fixture ~buffer_words:16 () in
  install_exn kernel channel
    [
      Li (Vino_vm.Asm.r5, 0);
      Li (Vino_vm.Asm.r6, 1);
      Alu (Vino_vm.Insn.Div, Vino_vm.Asm.r0, Vino_vm.Asm.r6, Vino_vm.Asm.r5);
      Ret;
    ];
  let data = Array.init 16 (fun k -> k + 1) in
  let out = transfer_in_kernel kernel channel data in
  Alcotest.(check (array int)) "fell back to plain copy" data out;
  Alcotest.(check bool) "graft removed" false (Channel.grafted channel)

(* A transfer shorter than the buffer, after a full one has left words in
   both areas: the copyin and the copyout move only the words handed
   over. *)
let test_partial_transfer () =
  let kernel, channel = fixture ~buffer_words:64 () in
  install_exn kernel channel (Grafts.xor_encrypt_source ~key:0xAB);
  ignore (transfer_in_kernel kernel channel (Array.make 64 0x5A5A));
  let data = Array.init 40 (fun k -> (k * 7) + 1) in
  Alcotest.(check (array int)) "40 words, each xor-encrypted"
    (Array.map (fun v -> v lxor 0xAB) data)
    (transfer_in_kernel kernel channel data)

let suite =
  [
    ( "stream",
      [
        Alcotest.test_case "ungrafted transfer is identity" `Quick
          test_ungrafted_is_identity;
        Alcotest.test_case "xor graft encrypts/decrypts" `Quick
          test_xor_encrypts_and_decrypts;
        Alcotest.test_case "copy graft is identity" `Quick
          test_copy_graft_is_identity;
        Alcotest.test_case "SFI slows the stream but preserves output"
          `Quick test_sfi_slows_but_preserves;
        Alcotest.test_case "oversized transfer rejected" `Quick
          test_oversized_transfer_rejected;
        Alcotest.test_case "crashing stream graft falls back to bcopy"
          `Quick test_crashing_stream_graft_falls_back_to_bcopy;
        Alcotest.test_case "partial transfer moves only its words" `Quick
          test_partial_transfer;
      ] );
  ]
