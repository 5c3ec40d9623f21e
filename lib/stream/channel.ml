module Cpu = Vino_vm.Cpu
module Mem = Vino_vm.Mem
module Engine = Vino_sim.Engine
module Kernel = Vino_core.Kernel
module Graft_point = Vino_core.Graft_point

let buffer_words_8kb = 2048

(* 105 us at 120 MHz over 2048 words is ~6.15 cycles/word. *)
let bcopy_cycles_per_word = 6

type t = {
  cname : string;
  buffer_words : int;
  kernel : Kernel.t;
  point : (int array, int array) Graft_point.t;
  mutable n_transfers : int;
}

let bcopy_cost words = words * bcopy_cycles_per_word

(* Input area at segment offset 0, output area right after it. Both lie
   inside the segment: [install] reserves [2 * buffer_words] shared
   words, so each area is copied in one bulk move. *)
let copyin kernel ~buffer_words cpu (data : int array) =
  let seg = Cpu.segment cpu in
  let words = min (Array.length data) buffer_words in
  Engine.delay (bcopy_cost words);
  Mem.blit_in ~len:words kernel.Kernel.mem seg.Mem.base data;
  Cpu.set_reg cpu 1 seg.Mem.base;
  Cpu.set_reg cpu 2 (seg.Mem.base + buffer_words);
  Cpu.set_reg cpu 3 words

let read_result kernel ~buffer_words cpu (data : int array) =
  let seg = Cpu.segment cpu in
  let words = min (Array.length data) buffer_words in
  Ok (Mem.blit_out kernel.Kernel.mem (seg.Mem.base + buffer_words) words)

let create kernel ~name ?(buffer_words = buffer_words_8kb) ?budget () =
  let point =
    Graft_point.create
      ~name:(Printf.sprintf "%s.copyout" name)
      ~indirection_cost:0 ~check_cost:0 ?budget
      ~default:(fun data ->
        Engine.delay (bcopy_cost (Array.length data));
        Array.copy data)
      ~setup:(copyin kernel ~buffer_words)
      ~read_result:(read_result kernel ~buffer_words)
      ()
  in
  let t = { cname = name; buffer_words; kernel; point; n_transfers = 0 } in
  Kernel.on_snapshot kernel (Graft_point.saver point);
  Kernel.on_snapshot kernel (fun () ->
      let n_transfers = t.n_transfers in
      fun () -> t.n_transfers <- n_transfers);
  t

let point t = t.point
let copyin t cpu data = copyin t.kernel ~buffer_words:t.buffer_words cpu data
let grafted t = Graft_point.grafted t.point

let install t ~cred ?limits image =
  Graft_point.replace t.point t.kernel ~cred
    ~shared_words:(2 * t.buffer_words)
    ?limits image

let transfer t ~cred data =
  if Array.length data > t.buffer_words then
    invalid_arg "Channel.transfer: buffer too large";
  t.n_transfers <- t.n_transfers + 1;
  Graft_point.invoke t.point t.kernel ~cred data

let transfers t = t.n_transfers
let name t = t.cname
