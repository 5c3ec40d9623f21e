module Engine = Vino_sim.Engine
module Stats = Vino_sim.Stats

let samples kernel ?(warmup = 3) ?(iterations = 300) f =
  if iterations < 1 then
    invalid_arg "Probe.samples: iterations must be at least 1";
  let engine = kernel.Vino_core.Kernel.engine in
  let stats = Stats.create () in
  ignore
    (Engine.spawn engine ~name:"probe" (fun () ->
         for k = 0 to warmup - 1 do
           f k
         done;
         for k = 0 to iterations - 1 do
           let t0 = Engine.now engine in
           f k;
           Stats.add stats
             (Vino_vm.Costs.us_of_cycles (Engine.now engine - t0))
         done));
  Vino_core.Kernel.run kernel;
  (match Engine.failures engine with
  | [] -> ()
  | (name, exn) :: _ ->
      failwith
        (Printf.sprintf "probe: process %s crashed: %s" name
           (Printexc.to_string exn)));
  stats

let mean_us kernel ?warmup ?iterations f =
  Stats.trimmed_mean (samples kernel ?warmup ?iterations f)
