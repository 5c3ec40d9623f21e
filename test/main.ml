(* Aggregated alcotest runner for the whole repository.

   Alcotest pads every suite name to the longest one and cuts each test
   name to fit an 80-column line, so the longest suite name ("intervals",
   nine characters) sets how every test name prints. *)

let () =
  Alcotest.run "vino"
    (List.concat
       [
         Test_insn.suite;
         Test_mem.suite;
         Test_cpu.suite;
         Test_asm.suite;
         Test_encode.suite;
         Test_parse.suite;
         Test_rewrite.suite;
         Test_verify.suite;
         Test_image.suite;
         Test_engine.suite;
         Test_undo.suite;
         Test_rlimit.suite;
         Test_lock.suite;
         Test_txn.suite;
         Test_arena.suite;
         Test_segalloc.suite;
         Test_core.suite;
         Test_linker.suite;
         Test_fs.suite;
         Test_volume.suite;
         Test_vmem.suite;
         Test_sched.suite;
         Test_stream.suite;
         Test_net.suite;
         Test_serve.suite;
         Test_jit.suite;
         Test_wrapper.suite;
         Test_measure.suite;
         Test_kflow.suite;
         Test_disaster.suite;
         Test_snapshot.suite;
         Test_soak.suite;
         Test_trace.suite;
         Test_par.suite;
         Test_stats.suite;
         Test_pqueue.suite;
       ])
