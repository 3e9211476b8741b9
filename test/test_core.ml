(* Tests for the Empower facade and the traffic workloads. *)

let check_float ?(eps = 1e-6) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.6f, got %.6f" msg expected actual

let fig1_net () =
  Empower.of_edges ~n_nodes:3 ~n_techs:2
    [ (0, 1, 0, 15.0); (1, 2, 0, 30.0); (0, 1, 1, 10.0) ]

let test_of_edges () =
  let net = fig1_net () in
  Alcotest.(check int) "nodes" 3 (Multigraph.n_nodes net.Empower.g);
  Alcotest.(check int) "links" 6 (Multigraph.num_links net.Empower.g)

let test_of_instance () =
  let inst = Residential.generate (Rng.create 1) in
  let net = Empower.of_instance inst Builder.Hybrid in
  Alcotest.(check int) "nodes" 10 (Multigraph.n_nodes net.Empower.g);
  Alcotest.(check int) "domains cover links" (Multigraph.num_links net.Empower.g)
    (Domain.num_links net.Empower.dom)

let test_plan () =
  let net = fig1_net () in
  let plan = Empower.plan net ~src:0 ~dst:2 in
  Alcotest.(check int) "two routes" 2
    (List.length plan.Empower.combination.Multipath.paths);
  check_float ~eps:0.01 "combined rate" (50.0 /. 3.0)
    plan.Empower.combination.Multipath.total_rate

let test_allocate_fig1 () =
  let net = fig1_net () in
  let alloc = Empower.allocate net ~flows:[ (0, 2) ] in
  check_float ~eps:0.4 "flow rate" (50.0 /. 3.0) alloc.Empower.flow_rates.(0);
  Alcotest.(check int) "route rates per flow" 2
    (Array.length alloc.Empower.route_rates.(0));
  check_float ~eps:0.5 "rates sum to flow rate" alloc.Empower.flow_rates.(0)
    (Array.fold_left ( +. ) 0.0 alloc.Empower.route_rates.(0))

let test_allocate_multi_flow () =
  let net = fig1_net () in
  (* Two flows on the same endpoints share fairly. *)
  let alloc = Empower.allocate net ~flows:[ (0, 2); (0, 2) ] in
  let a = alloc.Empower.flow_rates.(0) and b = alloc.Empower.flow_rates.(1) in
  Alcotest.(check bool) "roughly fair" true (Float.abs (a -. b) < 2.0);
  Alcotest.(check bool) "sum near capacity" true (a +. b > 14.0 && a +. b < 18.0)

let test_allocate_unreachable_flow () =
  let net =
    Empower.of_edges ~n_nodes:3 ~n_techs:1 [ (0, 1, 0, 10.0) ]
  in
  let alloc = Empower.allocate net ~flows:[ (0, 2) ] in
  check_float "zero rate" 0.0 alloc.Empower.flow_rates.(0);
  Alcotest.(check int) "empty plan" 0
    (List.length alloc.Empower.plans.(0).Empower.combination.Multipath.paths)

let test_flow_specs_and_simulate () =
  let net = fig1_net () in
  let alloc = Empower.allocate net ~flows:[ (0, 2) ] in
  let specs = Empower.flow_specs_of_allocation alloc in
  Alcotest.(check int) "one spec" 1 (List.length specs);
  let res = Empower.simulate ~seed:5 net ~flows:specs ~duration:20.0 in
  let gp = float_of_int res.Engine.flows.(0).Engine.received_bytes *. 8e-6 /. 20.0 in
  Alcotest.(check bool) "simulation delivers" true (gp > 12.0)

let test_flow_specs_skip_unreachable () =
  let net = Empower.of_edges ~n_nodes:3 ~n_techs:1 [ (0, 1, 0, 10.0) ] in
  let alloc = Empower.allocate net ~flows:[ (0, 2) ] in
  Alcotest.(check int) "no specs" 0
    (List.length (Empower.flow_specs_of_allocation alloc))

(* --- Workload --- *)

let test_workload_describe () =
  Alcotest.(check string) "saturated" "saturated UDP" (Workload.describe Workload.Saturated);
  Alcotest.(check bool) "file mentions size" true
    (String.length (Workload.describe (Workload.File { bytes = 5_000_000 })) > 0)

let test_workload_total_bytes () =
  Alcotest.(check (option int)) "saturated" None (Workload.total_bytes Workload.Saturated);
  Alcotest.(check (option int)) "file" (Some 100)
    (Workload.total_bytes (Workload.File { bytes = 100 }));
  Alcotest.(check (option int)) "poisson" (Some 500)
    (Workload.total_bytes
       (Workload.Poisson_files { bytes = 100; mean_gap_s = 1.0; count = 5 }))

let test_workload_arrivals () =
  let rng = Rng.create 3 in
  let times =
    Workload.arrival_times rng
      (Workload.Poisson_files { bytes = 1; mean_gap_s = 10.0; count = 50 })
  in
  Alcotest.(check int) "count" 50 (List.length times);
  let rec increasing = function
    | a :: (b :: _ as tl) -> a <= b && increasing tl
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (increasing times);
  (* Mean gap close to 10. *)
  let last = List.nth times 49 in
  Alcotest.(check bool) "mean gap plausible" true (last > 250.0 && last < 900.0)

let () =
  Alcotest.run "core"
    [
      ( "network",
        [
          Alcotest.test_case "of_edges" `Quick test_of_edges;
          Alcotest.test_case "of_instance" `Quick test_of_instance;
        ] );
      ( "facade",
        [
          Alcotest.test_case "plan" `Quick test_plan;
          Alcotest.test_case "allocate fig1" `Quick test_allocate_fig1;
          Alcotest.test_case "allocate multi-flow" `Quick test_allocate_multi_flow;
          Alcotest.test_case "allocate unreachable" `Quick
            test_allocate_unreachable_flow;
          Alcotest.test_case "specs + simulate" `Quick test_flow_specs_and_simulate;
          Alcotest.test_case "specs skip unreachable" `Quick
            test_flow_specs_skip_unreachable;
        ] );
      ( "workload",
        [
          Alcotest.test_case "describe" `Quick test_workload_describe;
          Alcotest.test_case "total bytes" `Quick test_workload_total_bytes;
          Alcotest.test_case "poisson arrivals" `Quick test_workload_arrivals;
        ] );
    ]
