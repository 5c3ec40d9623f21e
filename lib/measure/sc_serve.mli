(** Serve scenario — multi-tenant throughput and latency SLO table.

    Runs {!Vino_net.Serve} at several tenant counts on each execution
    path and reports, per [(tenant count, path)] cell, the makespan and
    the p50/p99/p999 arrival-to-response latency plus the throughput in
    requests per second (not a microsecond quantity, so it is emitted as
    an incremental line). Fully deterministic: cycle-exact across hosts
    and across [-j] levels. The [measure] test "serve table: golden
    cycles" pins all 45 rows to the cycle; re-pin it there after an
    intended recosting. *)

val report :
  tenants:int -> path:Vino_net.Serve.path -> unit -> Vino_net.Serve.report
(** One cell's raw report ({!Vino_net.Serve.default} with [tenants] and
    [path] substituted). *)

val rows : tenants:int -> path:Vino_net.Serve.path -> unit -> Table.row list
(** The five rows of one cell. *)

val table : unit -> Table.row list
(** The full table over 1, 4 and 12 tenants and every path, tenant-count
    major, path minor. *)
