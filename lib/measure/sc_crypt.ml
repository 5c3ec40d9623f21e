(* Table 6: the encryption (Stream) graft. *)

module Kernel = Vino_core.Kernel
module Graft_point = Vino_core.Graft_point
module Channel = Vino_stream.Channel
module Sgrafts = Vino_stream.Grafts

let buffer_words = Channel.buffer_words_8kb
let key = 0x5EC2E7

type fixture = {
  kernel : Kernel.t;
  channel : Channel.t;
  data : int array;
  cred : Vino_core.Cred.t;
}

let fixture () =
  let kernel = Kernel.create ~mem_words:(1 lsl 16) () in
  let channel = Channel.create kernel ~name:"bench" () in
  let data = Array.init buffer_words (fun k -> (k * 2654435761) land 0xFFFF) in
  { kernel; channel; data; cred = Vino_core.Cred.root }

let segment_words = (2 * buffer_words) + 512

(* Entry facts established by [Channel.copyin]: r1 = segment base (source
   buffer), r2 = base + buffer_words (destination), r3 = word count <=
   buffer_words. The verifier's interval analysis bounds the loop counter
   by r3 and proves every load and store of the transform loop
   in-segment — the paper's worst SFI case (per-word load + store) drops
   to zero sandbox instructions on the Verified path. *)
let verify_config =
  Vino_verify.Verify.config
    ~entry:
      [
        (1, Vino_verify.Verify.seg_window ());
        (2, Vino_verify.Verify.seg_window ~off:buffer_words ());
        (3, Vino_verify.Verify.arg_at_most buffer_words);
      ]
    ~words:segment_words ()

(* The rig for [path], and one transfer through the graft. *)
let rig_for fx path =
  let rig =
    Rig.load fx.kernel ~entry:verify_config.entry ~words:segment_words
      (Rig.seal fx.kernel ~verify:verify_config
         ~null:[ Vino_vm.Asm.Li (Vino_vm.Asm.r0, 0); Ret ]
         ~full:(Sgrafts.xor_encrypt_source ~key)
         path)
  in
  let setup cpu = Channel.copyin fx.channel cpu fx.data in
  let invoke ~commit _ =
    Rig.run rig ~indirection:0 ~check_cost:0 ~setup ~commit ()
  in
  (rig, invoke)

let stats ?iterations path =
  let fx = fixture () in
  let point = Channel.point fx.channel in
  match path with
  | Path.Base ->
      Probe.samples fx.kernel ?iterations (fun _ ->
          ignore (Graft_point.default_fn point fx.data))
  | Path.Vino ->
      Probe.samples fx.kernel ?iterations (fun _ ->
          ignore (Graft_point.invoke point fx.kernel ~cred:fx.cred fx.data))
  | Path.Null | Path.Unsafe | Path.Safe | Path.Verified | Path.FlowChecked
  | Path.Abort ->
      let rig, invoke = rig_for fx path in
      Rig.sample rig ?iterations path invoke

let measure ?iterations path =
  Vino_sim.Stats.trimmed_mean (stats ?iterations path)

let measure_abort ?iterations ~full () =
  let rig, invoke =
    rig_for (fixture ()) (if full then Path.Abort else Path.Null)
  in
  Rig.time_abort rig ?iterations invoke

let paper_elapsed =
  [
    (Path.Base, 105.);
    (Path.Vino, 105.);
    (Path.Null, 193.);
    (Path.Unsafe, 359.);
    (Path.Safe, 546.);
    (Path.Abort, 550.);
  ]

let table ?iterations () =
  Table.graft ~paper:paper_elapsed (measure ?iterations)
    ~increments:
      [
        (Path.Null, "Txn begin+commit (+ cache misses)");
        (Path.Unsafe, "Graft function");
        (Path.Safe, "MiSFIT overhead");
        (Path.Abort, "Abort cost (above commit)");
      ]
