module Engine = Vino_sim.Engine
module Stats = Vino_sim.Stats
module Kernel = Vino_core.Kernel
module Linker = Vino_core.Linker
module Wrapper = Vino_core.Wrapper

type t = {
  kernel : Kernel.t;
  loaded : Linker.loaded;
  cred : Vino_core.Cred.t;
  limits : Vino_txn.Rlimit.t;
  mutable decided : int;
}

(* The rig installs as [Cred.root], the trusted installer of the paper's
   unsafe path. *)
let load ?entry kernel ~words image =
  match Linker.load ?entry ~privileged:true kernel ~words image with
  | Ok loaded ->
      {
        kernel;
        loaded;
        cred = Vino_core.Cred.root;
        limits = Vino_txn.Rlimit.unlimited ();
        decided = 0;
      }
  | Error e -> failwith ("Rig.load: " ^ e)

let seg_base t = t.loaded.Linker.seg.Vino_vm.Mem.base

let seal kernel ~verify ~null ~full path =
  let source =
    match path with
    | Path.Null -> null
    | Path.Unsafe | Path.Safe | Path.Verified | Path.FlowChecked | Path.Abort
      ->
        full
    | Path.Base | Path.Vino -> invalid_arg "no graft on this path"
  in
  let obj = Vino_vm.Asm.assemble_exn source in
  match path with
  | Path.Unsafe -> Kernel.seal_unsafe kernel obj
  | _ -> (
      let verify = if path = Path.Verified then Some verify else None in
      match Kernel.seal ?verify kernel obj with
      | Ok image -> image
      | Error e -> failwith e)

type outcome = Committed | Rolled_back | Failed of string

(* The deliberate abort's reason. [run] tells it from a graft's own
   failure by physical equality, so no graft can forge it. *)
let measured_abort = "measured abort"

let run t ?(indirection = Vino_txn.Tcosts.us 1.)
    ?(check_cost = Vino_txn.Tcosts.us 2.) ?(setup = fun _ -> ())
    ?(check = fun _ -> true) ~commit () =
  Engine.delay indirection;
  let decide cpu =
    t.decided <- Engine.now t.kernel.Kernel.engine;
    if not (check cpu) then Error "result validation failed"
    else if commit then Ok ()
    else Error measured_abort
  in
  match
    Wrapper.invoke t.kernel t.loaded ~name:"rig" ~cred:t.cred
      ~limits:t.limits ~check_cost ~setup ~check:decide ()
  with
  | Ok () -> Committed
  | Error reason when reason == measured_abort -> Rolled_back
  | Error reason -> Failed reason

let sample t ?iterations path invoke =
  if path = Path.FlowChecked then t.kernel.Kernel.flow_enforce <- true;
  let commit = path <> Path.Abort in
  Probe.samples t.kernel ?iterations (fun k ->
      match invoke ~commit k with
      | Committed | Rolled_back -> ()
      | Failed reason -> failwith reason)

let time_abort t ?iterations invoke =
  let engine = t.kernel.Kernel.engine in
  let aborts = Stats.create () in
  let (_ : Stats.t) =
    Probe.samples t.kernel ?iterations (fun k ->
        (match invoke ~commit:false k with
        | Rolled_back -> ()
        | Committed | Failed _ -> failwith "expected rollback");
        Stats.add aborts
          (Vino_vm.Costs.us_of_cycles (Engine.now engine - t.decided)))
  in
  Stats.trimmed_mean aborts
