(* Tests for the benchmark harness's own helpers: the quartile helper
   (against values Python's statistics.quantiles gives for the same
   inputs), metric-name and unit validation, the digest check and the
   host-speed scaling arithmetic. *)

open Perfbench

let check_float msg expected actual =
  if Float.abs (expected -. actual) > 1e-12 then
    Alcotest.failf "%s: expected %.15g, got %.15g" msg expected actual

let check_triple msg (e1, e2, e3) (a1, a2, a3) =
  check_float (msg ^ " q1") e1 a1;
  check_float (msg ^ " q2") e2 a2;
  check_float (msg ^ " q3") e3 a3

(* --- Quantiles --- *)

let test_quartiles_python () =
  (* statistics.quantiles(xs, n=4), Python 3.11 *)
  check_triple "1..10" (2.75, 5.5, 8.25)
    (Quantiles.quartiles (List.init 10 (fun i -> float_of_int (i + 1))));
  check_triple "three" (1.0, 2.0, 3.0) (Quantiles.quartiles [ 3.0; 1.0; 2.0 ]);
  check_triple "two (extrapolated)" (0.75, 1.5, 2.25) (Quantiles.quartiles [ 2.0; 1.0 ]);
  check_triple "unsorted seven" (2.0, 4.0, 7.5)
    (Quantiles.quartiles [ 5.0; 1.0; 4.0; 2.0; 3.0; 9.0; 7.5 ])

let test_median () =
  check_float "odd" 4.0 (Quantiles.median [ 5.0; 1.0; 4.0; 2.0; 3.0; 9.0; 7.5 ]);
  check_float "even" 5.5 (Quantiles.median (List.init 10 (fun i -> float_of_int (i + 1))));
  check_float "single" 0.25 (Quantiles.median [ 0.25 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Quantiles.median: empty") (fun () ->
      ignore (Quantiles.median []))

(* --- Names --- *)

let test_metric_names () =
  List.iter
    (fun n -> Alcotest.(check bool) ("valid " ^ n) true (Names.valid_metric n))
    [ "wall_s"; "setup_s"; "sim.mac_phy_share"; "a-b.c_1"; "9lives"; String.make 64 'x' ];
  List.iter
    (fun n -> Alcotest.(check bool) ("invalid " ^ String.escaped n) false (Names.valid_metric n))
    [ ""; "_x"; ".x"; "-x"; "a b"; "a/b"; "a%"; "caf\xc3\xa9"; String.make 65 'x' ]

let test_units () =
  List.iter
    (fun u -> Alcotest.(check bool) ("valid " ^ u) true (Names.valid_unit u))
    [ "s"; "ms"; "1/s"; "%"; "Mwords/event"; "fraction"; String.make 16 'u' ];
  List.iter
    (fun u -> Alcotest.(check bool) ("invalid " ^ u) false (Names.valid_unit u))
    [ ""; "m s"; "s,"; String.make 17 'u' ]

(* --- Digests --- *)

let output = {|{"figure":"fig4","replication":3,"samples":{"EMPoWER":42.125}}|}

let reference () =
  match
    Digests.parse_reference
      (Digests.render_reference [ ("fig4-fluid", "residential/3", Digests.of_output output) ])
  with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let test_digest_accepts_identical () =
  Alcotest.(check (list string)) "no mismatch" []
    (Digests.mismatches (reference ()) ~workload:"fig4-fluid" [ ("residential/3", output) ])

let test_digest_catches_perturbation () =
  (* One digit of one sample changed. *)
  let perturbed = String.map (fun c -> if c = '5' then '6' else c) output in
  Alcotest.(check bool) "perturbed differs" true (perturbed <> output);
  Alcotest.(check (list string)) "perturbed output flagged" [ "residential/3" ]
    (Digests.mismatches (reference ()) ~workload:"fig4-fluid" [ ("residential/3", perturbed) ]);
  Alcotest.(check (list string)) "unpinned key flagged" [ "residential/4" ]
    (Digests.mismatches (reference ()) ~workload:"fig4-fluid" [ ("residential/4", output) ]);
  Alcotest.(check (list string)) "other workload flagged" [ "residential/3" ]
    (Digests.mismatches (reference ()) ~workload:"fig7-optimum" [ ("residential/3", output) ])

let test_reference_rejects_malformed () =
  List.iter
    (fun text ->
      match Digests.parse_reference text with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error _ -> ())
    [ "fig4-fluid residential/3\n"; "fig4-fluid residential/3 abc\n"; "a b c d\n" ];
  match Digests.parse_reference "\nfig4-fluid r/0 0123456789abcdef0123456789abcdef\n\n" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

(* --- Calib --- *)

let test_calib_scale () =
  let k = Calib.reference_kernel_s in
  (* Samples as (kernel start, kernel end, kernel time). Two stretches
     of 1 s of work: the first between two reference-speed samples, the
     second ending at a sample twice as slow, so it is scaled by the
     mean of its two bounding samples. *)
  let samples = [ (0.0, k, k); (1.0 +. k, 1.0 +. (2.0 *. k), k); (2.0 +. (2.0 *. k), 2.0 +. (4.0 *. k), 2.0 *. k) ] in
  let raw, scaled = Calib.scale samples in
  check_float "raw excludes kernel time" 2.0 raw;
  check_float "scaled" (1.0 +. (1.0 /. 1.5)) scaled;
  let raw1, scaled1 = Calib.scale [ (0.0, k, k) ] in
  check_float "single sample raw" 0.0 raw1;
  check_float "single sample scaled" 0.0 scaled1

let test_calib_measure () =
  let v, m = Calib.measure (fun () -> 42) in
  Alcotest.(check int) "result passed through" 42 v;
  Alcotest.(check bool) "two samples at least" true (m.Calib.samples >= 2);
  Alcotest.(check bool) "non-negative" true (m.Calib.raw_s >= 0.0 && m.Calib.scaled_s >= 0.0);
  Alcotest.check_raises "exception passed through" Exit (fun () ->
      ignore (Calib.measure (fun () -> raise Exit)))

let () =
  Alcotest.run "perfbench"
    [
      ( "quantiles",
        [
          Alcotest.test_case "quartiles match python" `Quick test_quartiles_python;
          Alcotest.test_case "median" `Quick test_median;
        ] );
      ( "names",
        [
          Alcotest.test_case "metric names" `Quick test_metric_names;
          Alcotest.test_case "units" `Quick test_units;
        ] );
      ( "digests",
        [
          Alcotest.test_case "identical output accepted" `Quick test_digest_accepts_identical;
          Alcotest.test_case "perturbed output caught" `Quick test_digest_catches_perturbation;
          Alcotest.test_case "malformed reference rejected" `Quick test_reference_rejects_malformed;
        ] );
      ( "calib",
        [
          Alcotest.test_case "scale" `Quick test_calib_scale;
          Alcotest.test_case "measure" `Quick test_calib_measure;
        ] );
    ]
