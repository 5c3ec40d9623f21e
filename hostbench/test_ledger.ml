open Hostbench

let feq = Alcotest.float 1e-9

let percentile () =
  let xs = [ 5.; 1.; 4.; 2.; 3. ] in
  Alcotest.check feq "p0 is the minimum" 1. (Ledger.percentile xs 0.);
  Alcotest.check feq "p100 is the maximum" 5. (Ledger.percentile xs 100.);
  Alcotest.check feq "p25 on a rank" 2. (Ledger.percentile xs 25.);
  Alcotest.check feq "p90 interpolates" 4.6 (Ledger.percentile xs 90.);
  Alcotest.check feq "one sample" 7. (Ledger.percentile [ 7. ] 99.)

let median () =
  Alcotest.check feq "odd count" 3. (Ledger.median [ 3.; 1.; 5. ]);
  Alcotest.check feq "even count averages" 2.5
    (Ledger.median [ 4.; 1.; 2.; 3. ])

let trimmed_mean () =
  let xs = List.init 10 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "drops one sample at each end of ten" 6.5
    (Ledger.trimmed_mean (1000. :: List.tl xs));
  Alcotest.check feq "too few samples to trim" 2.
    (Ledger.trimmed_mean [ 1.; 2.; 3. ])

let tail () =
  Alcotest.(check (option (pair feq feq)))
    "ten samples have no tail" None
    (Ledger.tail (List.init 10 float_of_int));
  let xs = List.init 40 (fun i -> float_of_int (i + 1)) in
  match Ledger.tail xs with
  | None -> Alcotest.fail "40 samples must have a tail"
  | Some (p, v) ->
      Alcotest.check feq "p = 100 (1 - 10/40)" 75. p;
      Alcotest.check feq "value at that rank" 30.25 v;
      let beyond = List.length (List.filter (fun x -> x > v) xs) in
      Alcotest.(check int) "exactly ten samples beyond" 10 beyond

let closes () =
  let rows =
    [ { Ledger.layer = "link"; ns = 700 }; { layer = "vm"; ns = 200 } ]
  in
  let closed = Ledger.close ~total:1000 rows in
  Alcotest.(check int) "rows sum to the total" 1000 (Ledger.sum closed);
  Alcotest.(check int) "remainder is unattributed" 100
    (Ledger.find closed Ledger.unattributed);
  Alcotest.check feq "share" 0.7
    (Ledger.share ~total:1000 { Ledger.layer = "link"; ns = 700 });
  Alcotest.(check (option string))
    "largest layer" (Some "link")
    (Option.map (fun r -> r.Ledger.layer) (Ledger.largest closed));
  let over = Ledger.close ~total:500 rows in
  Alcotest.(check int) "overshoot closes too" 500 (Ledger.sum over);
  Alcotest.(check int) "negative remainder is kept" (-400)
    (Ledger.find over Ledger.unattributed);
  let split = Ledger.split ~traced:1300 ~untraced:1000 rows in
  Alcotest.(check int) "split rows sum to the traced total" 1300
    (Ledger.sum split);
  Alcotest.(check int) "tracing row" 300 (Ledger.find split Ledger.tracing);
  Alcotest.(check int) "unattributed closes on the untraced total" 100
    (Ledger.find split Ledger.unattributed)

let () =
  Alcotest.run "hostbench"
    [
      ( "ledger",
        [
          Alcotest.test_case "percentile interpolates between ranks" `Quick
            percentile;
          Alcotest.test_case "median of odd and even counts" `Quick median;
          Alcotest.test_case "trimmed mean drops ten percent each end" `Quick
            trimmed_mean;
          Alcotest.test_case "tail keeps ten samples beyond" `Quick tail;
          Alcotest.test_case "ledger rows close on the total" `Quick closes;
        ] );
    ]
