module Serve = Vino_net.Serve
module Stats = Vino_sim.Stats

let tenant_counts = [ 1; 4; 12 ]

let report ~tenants ~path () =
  Serve.run { Serve.default with Serve.tenants; path }

(* Makespan and latency percentiles are elapsed-microsecond rows;
   throughput is not a time, so it rides along as an incremental line. *)
let rows ~tenants ~path () =
  let r = report ~tenants ~path () in
  let st = Stats.create () in
  List.iter (Stats.add st) (Serve.latencies r);
  let label s =
    Printf.sprintf "t=%d %s %s" tenants (Serve.path_name path) s
  in
  [
    Table.elapsed (label "makespan") r.Serve.drain_us;
    Table.elapsed (label "p50") (Stats.percentile st 50.);
    Table.elapsed (label "p99") (Stats.percentile st 99.);
    Table.elapsed (label "p999") (Stats.percentile st 99.9);
    Table.overhead (label "throughput (req/s)") r.Serve.throughput_rps;
  ]

let table () =
  List.concat_map
    (fun tenants ->
      List.concat_map (fun path -> rows ~tenants ~path ()) Serve.all_paths)
    tenant_counts
