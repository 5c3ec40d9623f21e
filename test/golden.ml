(* Golden virtual-cycle tables. Every table [bench/main.exe quick
   --json] writes as a [BENCH_<name>.json] is pinned row by row, to the
   cycle, by a tier-1 test built on [check]: Tables 3-7 and the serve
   table ([measure]), and the recovery-cost table ([disaster]). A change
   that moves one row by one cycle, either way, fails [dune runtest].
   After an intended recosting, re-pin the expected rows from the
   failure's report, or from the [cycles] column of the regenerated
   [BENCH_*.json].

   The bench computes its rows under a trace sink, so each table is
   checked twice: with no sink installed and under a fresh one. Tracing
   must not move the virtual clock. *)

module Trace = Vino_trace.Trace

(* [body check] runs twice, first with no sink installed, then under a
   fresh sink; [check name rows expected] compares the labels and
   cycles of [rows] with [expected]. *)
let check body =
  let run how =
    body (fun name rows expected ->
        Alcotest.(check (list (pair string int)))
          (Printf.sprintf "%s (%s): labels and cycles" name how)
          expected
          (List.map
             (fun (r : Vino_measure.Table.row) ->
               (r.label, Vino_vm.Costs.cycles_of_us r.measured_us))
             rows))
  in
  Alcotest.(check bool) "no sink installed" false (Trace.enabled ());
  run "no sink";
  Trace.with_t (Trace.create ()) (fun () -> run "fresh trace sink")
