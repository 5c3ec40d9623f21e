(* Recovery cost by fault class (the disaster-rig companion to Table 7):
   virtual elapsed time from kicking one graft invocation to a drained
   engine, for a healthy graft and for each injected misbehaviour.

   Measured on the stream site: no disk or daemon in the timeline, so the
   delta over the healthy run is exactly detection + abort + removal. *)

module Engine = Vino_sim.Engine
module Kernel = Vino_core.Kernel
module Asm = Vino_vm.Asm
module Seed = Vino_disaster.Seed
module Injector = Vino_disaster.Injector
module Site = Vino_disaster.Site

let seal_install (site : Site.t) source =
  match Asm.assemble source with
  | Error e -> Error ("assemble: " ^ e)
  | Ok obj -> (
      match Kernel.seal site.kernel obj with
      | Error e -> Error e
      | Ok image -> site.install image)

let drained_elapsed (site : Site.t) ~contender =
  let engine = site.kernel.Kernel.engine in
  let t0 = Engine.now engine in
  site.drive_once ();
  if contender then Site.spawn_contender site ~delay:4_000;
  Kernel.run site.kernel;
  Vino_vm.Costs.us_of_cycles (Engine.now engine - t0)

let measure_healthy () =
  let site = Site.create Site.Stream_copy in
  match seal_install site site.healthy with
  | Error e -> failwith ("healthy graft refused: " ^ e)
  | Ok () -> drained_elapsed site ~contender:false

(* The first seed whose variant is detected at run time (for bad-call the
   provably-bad variant is refused at load, which has no recovery cost to
   measure — we want the laundered one here). *)
let runtime_variant kind =
  let rec go seed =
    if seed > 64 then failwith "no runtime-detected variant found"
    else
      let site = Site.create Site.Stream_copy in
      let v =
        Injector.apply kind
          ~rng:(Seed.derive ~seed 0)
          ~rig:site.Site.rig site.Site.healthy
      in
      if v.Injector.expect = Injector.Rejected then go (seed + 1)
      else (site, v)
  in
  go 7

let measure_kind kind =
  let site, variant = runtime_variant kind in
  Option.iter (Site.pin_flow_witness site) variant.Injector.flow_witness;
  match seal_install site variant.Injector.source with
  | Error e -> failwith (Injector.name kind ^ ": unexpected load refusal: " ^ e)
  | Ok () -> drained_elapsed site ~contender:variant.Injector.wants_contender

let table () =
  let healthy = measure_healthy () in
  let rows =
    Table.elapsed "healthy graft (commit path)" healthy
    :: List.map
         (fun kind ->
           Table.elapsed
             (Printf.sprintf "detect+recover: %s" (Injector.name kind))
             (measure_kind kind))
         Injector.all
  in
  (* Campaign throughput in virtual time: deterministic (every record's
     elapsed cycles are a pure function of seed and index), so the rows
     are pinned like any other. [~fork:false]: a forked campaign reuses
     sites warmed by an earlier campaign in the same domain, so the
     host-side trace counters emitted alongside the bench JSON would
     depend on what ran before; fresh sites keep them a function of this
     table alone. The virtual time is the same either way — that is the
     forking contract. *)
  let count = 40 in
  let campaign =
    Vino_disaster.Campaign.run ~recheck_every:0 ~fork:false ~seed:42 ~count
      ()
  in
  let vtime_us =
    Vino_vm.Costs.us_of_cycles (Vino_disaster.Campaign.total_vtime campaign)
  in
  rows
  @ [
      Table.elapsed
        (Printf.sprintf "campaign trial, mean of %d (virtual us)" count)
        (vtime_us /. float_of_int count);
      Table.elapsed "campaign throughput (trials per virtual second)"
        (1e6 *. float_of_int count /. vtime_us);
    ]
