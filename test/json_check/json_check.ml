(* Reads one JSON document on stdin and exits 1 unless
   [Vino_trace.Json.of_string] parses it. The argument names the emitter
   in the error message. The runtest rule beside this file pipes every
   CLI [--json] output through it, so a malformed emitter fails the
   test suite. *)

let () =
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "stdin" in
  match Vino_trace.Json.of_string (In_channel.input_all stdin) with
  | Ok _ -> ()
  | Error e ->
      Printf.eprintf "%s: output is not valid JSON: %s\n" what e;
      exit 1
