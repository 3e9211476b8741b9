(* Tests for utilities, prices and the single-/multi-path congestion
   controllers, including the Figure 1 rate split. *)

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.6f, got %.6f" msg expected actual

let fig1 () =
  let g =
    Multigraph.create ~n_nodes:3 ~n_techs:2
      ~edges:[ (0, 1, 0, 15.0); (1, 2, 0, 30.0); (0, 1, 1, 10.0) ]
  in
  (g, Domain.single_domain_per_tech g)

let fig1_routes g =
  (* Route 1: PLC a->b (4), WiFi b->c (2). Route 2: WiFi a->b (0), WiFi
     b->c (2). *)
  [ Paths.of_links g [ 4; 2 ]; Paths.of_links g [ 0; 2 ] ]

(* --- Utility --- *)

let test_utility_proportional_fair () =
  check_float "U(0)" 0.0 (Utility.u 0.0);
  check_float "U(1)" (log 2.0) (Utility.u 1.0);
  check_float "U'(0)" 1.0 (Utility.u' 0.0);
  check_float "U'inv(1)" 0.0 (Utility.u'_inv 1.0);
  check_float "U'inv(0.1)" 9.0 (Utility.u'_inv 0.1);
  check_float "U'inv clamped" 0.0 (Utility.u'_inv 5.0)

let test_utility_inverse_roundtrip () =
  List.iter
    (fun x ->
      check_float ~eps:1e-6
        (Printf.sprintf "roundtrip at %.1f" x)
        x
        (Utility.u'_inv (Utility.u' x)))
    [ 0.0; 0.5; 1.0; 10.0; 100.0 ]

let test_utility_concavity () =
  let rec check_decreasing prev = function
    | [] -> ()
    | x :: tl ->
      let d = Utility.u' x in
      Alcotest.(check bool) "U' decreasing" true (d < prev);
      check_decreasing d tl
  in
  check_decreasing (Utility.u' 0.0 +. 1.0) [ 0.0; 1.0; 2.0; 5.0; 20.0 ]

(* --- Problem / Price --- *)

let test_problem_structure () =
  let g, dom = fig1 () in
  let routes = fig1_routes g in
  let p = Problem.make g dom ~flows:[ routes ] in
  Alcotest.(check int) "2 routes" 2 (Problem.n_routes p);
  Alcotest.(check int) "1 flow" 1 (Problem.n_flows p);
  Alcotest.(check (list int)) "flow routes" [ 0; 1 ] p.Problem.flow_routes.(0);
  check_float "flow rate" 7.0 (Problem.flow_rate p [| 3.0; 4.0 |] 0);
  let p2 = Problem.make g dom ~flows:[ [ List.hd routes ]; [ List.nth routes 1 ] ] in
  Alcotest.(check int) "2 flows" 2 (Problem.n_flows p2);
  Alcotest.(check int) "flow of route 1" 1 p2.Problem.flow_of.(1)

let test_problem_validation () =
  let g, dom = fig1 () in
  Alcotest.(check bool) "bad delta rejected" true
    (try
       ignore (Problem.make ~delta:1.5 g dom ~flows:[]);
       false
     with Invalid_argument _ -> true);
  let dead = Multigraph.create ~n_nodes:2 ~n_techs:1 ~edges:[ (0, 1, 0, 0.0) ] in
  let ddom = Domain.single_domain_per_tech dead in
  Alcotest.(check bool) "unusable route rejected" true
    (try
       ignore (Problem.make dead ddom ~flows:[ [ { Paths.links = [ 0 ] } ] ]);
       false
     with Invalid_argument _ -> true)

let test_airtime_demand () =
  let g, dom = fig1 () in
  let p = Problem.make g dom ~flows:[ fig1_routes g ] in
  (* x = (10, 0): Route 1 only. Link 2 (wifi b->c) carries 10 Mbps:
     demand = 10/30. Link 4 (plc) carries 10: demand = 1. *)
  let x = [| 10.0; 0.0 |] in
  check_float "wifi b->c demand" (1.0 /. 3.0) (Problem.airtime_demand p x 2);
  check_float "plc demand" 1.0 (Problem.airtime_demand p x 4);
  check_float "unused wifi a->b" 0.0 (Problem.airtime_demand p x 0)

let test_feasibility () =
  let g, dom = fig1 () in
  let p = Problem.make g dom ~flows:[ fig1_routes g ] in
  (* The optimum (10, 20/3) saturates both constraints. *)
  Alcotest.(check bool) "optimum feasible" true
    (Problem.feasible ~slack:1e-6 p [| 10.0; 20.0 /. 3.0 |]);
  Alcotest.(check bool) "above optimum infeasible" false
    (Problem.feasible p [| 10.0; 8.0 |]);
  Alcotest.(check bool) "zero feasible" true (Problem.feasible p [| 0.0; 0.0 |])

let test_price_airtimes () =
  let g, dom = fig1 () in
  let p = Problem.make g dom ~flows:[ fig1_routes g ] in
  let price = Price.create p in
  (* alpha = 0: computes y without moving gamma. *)
  Price.step price ~x:[| 10.0; 0.0 |] ~alpha:0.0;
  (* y for wifi b->c: all wifi demands = 10/30 (link 2 only). *)
  check_float "y wifi" (1.0 /. 3.0) (Price.airtime price 2);
  (* y for plc a->b: 10/10 = 1. *)
  check_float "y plc" 1.0 (Price.airtime price 4);
  check_float "gamma untouched" 0.0 (Price.gamma price).(2);
  (* Routes on link caching. *)
  Alcotest.(check (list int)) "routes on shared wifi" [ 0; 1 ]
    (Price.routes_on_link price 2)

let test_price_gamma_updates () =
  let g, dom = fig1 () in
  let p = Problem.make g dom ~flows:[ fig1_routes g ] in
  let price = Price.create p in
  (* Overloaded airtime raises gamma; underloaded decays to zero. *)
  Price.step price ~x:[| 100.0; 100.0 |] ~alpha:0.1;
  Alcotest.(check bool) "gamma rose" true ((Price.gamma price).(0) > 0.0);
  for _ = 1 to 100 do
    Price.step price ~x:[| 0.0; 0.0 |] ~alpha:0.1
  done;
  check_float "gamma decayed to 0" 0.0 (Price.gamma price).(0)

let test_price_route_costs () =
  let g, dom = fig1 () in
  let p = Problem.make g dom ~flows:[ fig1_routes g ] in
  let price = Price.create p in
  let gamma = Price.gamma price in
  Array.fill gamma 0 (Array.length gamma) 1.0;
  Price.route_costs price;
  (* All gammas = 1. q_r = sum over hops of d_l * |I_l|. *)
  let q = Price.q price in
  (* Route 1: plc hop d=1/10, |I|=2 -> 0.2 ; wifi hop d=1/30, |I|=4 ->
     4/30. *)
  check_float ~eps:1e-9 "q route 1" (0.2 +. (4.0 /. 30.0)) q.(0);
  (* Route 2: wifi a->b d=1/15 |I|=4 -> 4/15 ; + 4/30. *)
  check_float ~eps:1e-9 "q route 2" ((4.0 /. 15.0) +. (4.0 /. 30.0)) q.(1)

(* --- Kernel against the reference oracle (test/ref_cc.ml) --- *)

(* EMPoWER starts injection at the routing-estimated rates; compute
   them the way the source would (standalone R(P) per route from the
   multipath procedure). *)
let routing_init g dom flows =
  Array.of_list
    (List.concat_map (List.map (fun p -> Update.path_rate g dom p)) flows)


let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
       a b

(* A random problem on a residential network: several flows between
   random pairs (multi-route where the exploration tree finds several
   paths, none where it finds none) and a random margin. *)
let random_case seed =
  let rs = Random.State.make [| seed |] in
  let inst = Residential.generate (Rng.create seed) in
  let g = Builder.graph inst Builder.Hybrid in
  let dom = Domain.of_instance inst Builder.Hybrid g in
  let n = Multigraph.n_nodes g in
  let flows =
    List.init
      (1 + Random.State.int rs 4)
      (fun _ ->
        let src = Random.State.int rs n in
        let dst = (src + 1 + Random.State.int rs (n - 1)) mod n in
        Multipath.routes (Multipath.find g dom ~src ~dst))
  in
  let delta = [| 0.0; 0.05; 0.3 |].(Random.State.int rs 3) in
  let p = Problem.make ~delta g dom ~flows in
  (rs, g, dom, flows, p)

let prop_kernel_matches_reference_solve =
  QCheck.Test.make ~name:"kernel solve bit-identical to the reference" ~count:40
    QCheck.(int_bound 100000)
    (fun seed ->
      let rs, g, dom, flows, p = random_case seed in
      let x_init = if Random.State.bool rs then Some (routing_init g dom flows) else None in
      let slots = 250 + Random.State.int rs 300 in
      let stop_tol = if Random.State.bool rs then Some 0.05 else None in
      let k = Multi_cc.solve ?x_init ~slots ?stop_tol p in
      let r = Ref_cc.solve ?x_init ~slots ?stop_tol p in
      if not (same_bits k.Cc_result.rates r.Cc_result.rates) then
        QCheck.Test.fail_reportf "seed %d: rates differ" seed;
      if not (same_bits k.Cc_result.flow_rates r.Cc_result.flow_rates) then
        QCheck.Test.fail_reportf "seed %d: flow rates differ" seed;
      Array.iteri
        (fun t row ->
          if not (same_bits row r.Cc_result.trace.(t)) then
            QCheck.Test.fail_reportf "seed %d: trace differs at slot %d" seed t)
        k.Cc_result.trace;
      true)

let prop_kernel_matches_reference_prices =
  QCheck.Test.make ~name:"kernel gamma, airtimes and q bit-identical to the reference"
    ~count:40
    QCheck.(int_bound 100000)
    (fun seed ->
      let rs, _, _, _, p = random_case seed in
      let kernel = Price.create p and reference = Ref_cc.Price.create p in
      let n_links = Array.length (Price.gamma kernel) in
      for step = 1 to 60 do
        let x =
          Array.init (Problem.n_routes p) (fun _ -> Random.State.float rs 40.0)
        in
        let alpha = Random.State.float rs 0.2 in
        Price.step kernel ~x ~alpha;
        Price.route_costs kernel;
        let y = Ref_cc.Price.airtimes reference ~x in
        Ref_cc.Price.step_gamma reference ~y ~alpha;
        let q = Ref_cc.Price.route_costs reference in
        if not (same_bits (Array.init n_links (Price.airtime kernel)) y) then
          QCheck.Test.fail_reportf "seed %d: y differs at step %d" seed step;
        if not (same_bits (Price.gamma kernel) reference.Ref_cc.Price.gamma) then
          QCheck.Test.fail_reportf "seed %d: gamma differs at step %d" seed step;
        if not (same_bits (Price.q kernel) q) then
          QCheck.Test.fail_reportf "seed %d: q differs at step %d" seed step
      done;
      true)

let prop_dual_matches_engine_step =
  QCheck.Test.make ~name:"dual step bit-identical to the engine's control tick"
    ~count:40
    QCheck.(int_bound 100000)
    (fun seed ->
      let rs, _, dom, flows, _ = random_case seed in
      let n_links = Domain.num_links dom in
      let is_carrier = Array.make n_links false in
      List.iter
        (List.iter (fun p -> List.iter (fun l -> is_carrier.(l) <- true) p.Paths.links))
        flows;
      let delta = Random.State.float rs 0.3 in
      let dual = Price.Dual.create dom ~delta ~is_carrier in
      let priced_links = Array.to_list (Price.Dual.priced dual) in
      let gamma = Array.make n_links 0.0 in
      let demand = Array.make n_links 0.0 in
      for step = 1 to 60 do
        (* Measured demand: zero on idle carriers, bursts elsewhere. *)
        Array.iteri
          (fun c l ->
            let v =
              if Random.State.int rs 4 = 0 then 0.0 else Random.State.float rs 0.6
            in
            demand.(l) <- v;
            (Price.Dual.demand dual).(c) <- v)
          (Price.Dual.carriers dual);
        let gamma_alpha = Random.State.float rs 0.1 in
        Ref_cc.engine_step dom ~priced_links ~demand ~gamma ~gamma_alpha ~delta;
        Price.Dual.step dual ~alpha:gamma_alpha;
        if not (same_bits (Price.Dual.gamma dual) gamma) then
          QCheck.Test.fail_reportf "seed %d: gamma differs at tick %d" seed step
      done;
      true)

(* Allocation gate: on a fixed residential problem the slot loop
   allocates only the trace row, [n_flows + 1] words per slot. The
   4000- and 2000-slot solves share every per-solve cost (and the
   trace spine, which is too large for the minor heap), so their
   difference is the per-slot allocation of 2000 slots. *)
let test_kernel_allocation_gate () =
  let inst = Residential.generate (Rng.create 77) in
  let g = Builder.graph inst Builder.Hybrid in
  let dom = Domain.of_instance inst Builder.Hybrid g in
  let flows =
    List.filter
      (fun rs -> rs <> [])
      [
        Multipath.routes (Multipath.find g dom ~src:0 ~dst:9);
        Multipath.routes (Multipath.find g dom ~src:3 ~dst:7);
      ]
  in
  let p = Problem.make g dom ~flows in
  let x_init = routing_init g dom flows in
  let words slots =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Multi_cc.solve ~x_init ~slots p));
    Gc.minor_words () -. w0
  in
  let extra = words 4000 -. words 2000 in
  let budget = float_of_int (2000 * (Problem.n_flows p + 1)) in
  if extra > budget then
    Alcotest.failf "2000 extra slots allocated %.0f words (budget %.0f)" extra budget

(* --- Alpha heuristic --- *)

let test_alpha_initial () =
  check_float "3-hop multipath" 0.02
    (Alpha.initial ~single_path:false ~longest_route_hops:3);
  check_float "two-hop" 0.04 (Alpha.initial ~single_path:false ~longest_route_hops:2);
  check_float "single path" 0.04 (Alpha.initial ~single_path:true ~longest_route_hops:3);
  check_float "one-hop" 0.08 (Alpha.initial ~single_path:false ~longest_route_hops:1)

let test_alpha_halves_on_oscillation () =
  let a = Alpha.create ~single_path:false ~longest_route_hops:3 in
  let a0 = Alpha.current a in
  (* Feed a growing oscillation: +1, -2, +3, -4 ... amplitudes
     non-decreasing, every step a sign flip. *)
  let rate = ref 10.0 in
  for i = 1 to 20 do
    let amp = float_of_int i in
    rate := !rate +. (if i mod 2 = 0 then -.amp else amp);
    Alpha.observe a [| !rate |]
  done;
  Alcotest.(check bool) "alpha halved" true (Alpha.current a < a0)

let test_alpha_stable_rate_keeps_alpha () =
  let a = Alpha.create ~single_path:false ~longest_route_hops:3 in
  let a0 = Alpha.current a in
  for i = 1 to 100 do
    Alpha.observe a [| 10.0 +. (0.001 *. float_of_int i) |]
  done;
  check_float "unchanged" a0 (Alpha.current a)

(* The engine's per-flow step size against the reference heuristic
   on random rate samples: oscillating phases (which halve α) mixed
   with drifts and repeats. *)
let prop_alpha_matches_reference =
  QCheck.Test.make ~name:"step-size heuristic bit-identical to the reference" ~count:100
    QCheck.(int_bound 100000)
    (fun seed ->
      let rs = Random.State.make [| seed |] in
      let hops = 1 + Random.State.int rs 4 and single_path = Random.State.bool rs in
      let a = Alpha.create ~single_path ~longest_route_hops:hops in
      let r = Ref_cc.Alpha.make (Alpha.initial ~single_path ~longest_route_hops:hops) in
      let rate = ref 10.0 in
      for i = 1 to 400 do
        (match Random.State.int rs 3 with
        | 0 ->
          let swing = float_of_int (i mod 7) in
          rate := !rate +. (if i mod 2 = 0 then -.swing else swing)
        | 1 -> rate := !rate +. Random.State.float rs 2.0 -. 1.0
        | _ -> ());
        let rates = [| !rate *. 0.25; !rate *. 0.75 |] in
        Alpha.observe a rates;
        Ref_cc.Alpha.observe r (rates.(0) +. rates.(1));
        if not (same_bits [| Alpha.current a |] [| Ref_cc.Alpha.current r |]) then
          QCheck.Test.fail_reportf "seed %d: alpha differs at sample %d" seed i
      done;
      true)

(* --- Controllers --- *)

(* Single-route problems: the multipath controller with one route per
   flow is the Section 4.2 single-path controller. *)
let test_single_cc_one_link () =
  (* One flow, one direct 10 Mbps link, single collision domain: the
     proportional-fair optimum under sum-airtime <= 1 is x = 10. *)
  let g = Multigraph.create ~n_nodes:2 ~n_techs:1 ~edges:[ (0, 1, 0, 10.0) ] in
  let dom = Domain.single_domain_per_tech g in
  let p = Problem.make g dom ~flows:[ [ Paths.of_links g [ 0 ] ] ] in
  let res = Multi_cc.solve ~slots:4000 p in
  check_float ~eps:0.3 "x -> 10" 10.0 res.Cc_result.flow_rates.(0);
  Alcotest.(check bool) "feasible" true
    (Problem.feasible ~slack:0.05 p res.Cc_result.rates)

let test_single_cc_two_flows_fair () =
  (* Two flows sharing one 12 Mbps link: proportional fairness splits
     it evenly (identical utilities). *)
  let g = Multigraph.create ~n_nodes:2 ~n_techs:1 ~edges:[ (0, 1, 0, 12.0) ] in
  let dom = Domain.single_domain_per_tech g in
  let r () = Paths.of_links g [ 0 ] in
  let p = Problem.make g dom ~flows:[ [ r () ]; [ r () ] ] in
  let res = Multi_cc.solve ~slots:4000 p in
  check_float ~eps:0.3 "flow 0 half" 6.0 res.Cc_result.flow_rates.(0);
  check_float ~eps:0.3 "flow 1 half" 6.0 res.Cc_result.flow_rates.(1)

let test_multi_cc_fig1 () =
  (* The Figure 1 scenario: total must approach 10 + 20/3 = 16.67. *)
  let g, dom = fig1 () in
  let comb = Multipath.find g dom ~src:0 ~dst:2 in
  let x_init = Array.of_list (List.map snd comb.Multipath.paths) in
  let p = Problem.make g dom ~flows:[ Multipath.routes comb ] in
  let res = Multi_cc.solve ~x_init ~slots:8000 p in
  check_float ~eps:0.5 "total ~16.67" (50.0 /. 3.0) res.Cc_result.flow_rates.(0);
  Alcotest.(check bool) "feasible with slack" true
    (Problem.feasible ~slack:0.05 p res.Cc_result.rates)

let test_multi_cc_respects_delta () =
  let g, dom = fig1 () in
  let p = Problem.make ~delta:0.3 g dom ~flows:[ fig1_routes g ] in
  let res = Multi_cc.solve ~slots:8000 p in
  (* With margin 0.3, airtime targets shrink to 0.7: max total is
     0.7 * 16.67 = 11.67. *)
  Alcotest.(check bool) "total reduced" true (res.Cc_result.flow_rates.(0) < 13.0);
  Alcotest.(check bool) "still substantial" true (res.Cc_result.flow_rates.(0) > 9.0)

let test_multi_cc_offloads_under_contention () =
  (* Figure 9's adaptation: when a second flow saturates the WiFi
     medium, flow 1 should move (mostly) to PLC. Topology: flow A has
     a PLC route and a WiFi route; flow B has only the WiFi medium. *)
  let g =
    Multigraph.create ~n_nodes:4 ~n_techs:2
      ~edges:
        [
          (0, 1, 1, 20.0) (* plc a->b, flow A route 1 *);
          (0, 1, 0, 20.0) (* wifi a->b, flow A route 2 *);
          (2, 3, 0, 20.0) (* wifi c->d, flow B *);
        ]
  in
  let dom = Domain.single_domain_per_tech g in
  let route_plc = Paths.of_links g [ 0 ] in
  let route_wifi = Paths.of_links g [ 2 ] in
  let route_b = Paths.of_links g [ 4 ] in
  let flows = [ [ route_plc; route_wifi ]; [ route_b ] ] in
  let p = Problem.make g dom ~flows in
  let res = Multi_cc.solve ~x_init:(routing_init g dom flows) ~slots:12000 p in
  (* Flow A keeps the full PLC rate; WiFi is split between A's second
     route and B. Proportional fairness: flow A has ~20 from PLC
     already, so B (poorer) gets almost all of WiFi. *)
  Alcotest.(check bool) "A's PLC route nearly full" true (res.Cc_result.rates.(0) > 17.0);
  Alcotest.(check bool) "B gets most of WiFi" true (res.Cc_result.rates.(2) > 12.0);
  Alcotest.(check bool) "A's WiFi route mostly ceded" true
    (res.Cc_result.rates.(1) < res.Cc_result.rates.(2))

let test_multi_cc_convergence_detection () =
  let g, dom = fig1 () in
  let flows = [ fig1_routes g ] in
  let p = Problem.make g dom ~flows in
  let res = Multi_cc.solve ~x_init:(routing_init g dom flows) ~slots:6000 p in
  match Cc_result.convergence_slot res with
  | None -> Alcotest.fail "never converged"
  | Some s ->
    Alcotest.(check bool) "converges well before the end" true (s < 1000);
    Alcotest.(check bool) "nonzero" true (s >= 0)

let test_cc_result_utility () =
  let g, dom = fig1 () in
  let p = Problem.make g dom ~flows:[ fig1_routes g ] in
  let res = Multi_cc.solve ~slots:2000 p in
  let u =
    Array.fold_left (fun acc x -> acc +. log (1.0 +. x)) 0.0 res.Cc_result.flow_rates
  in
  Alcotest.(check bool) "utility positive" true (u > 0.0)

let prop_multi_cc_feasible_on_random_networks =
  QCheck.Test.make ~name:"controller allocations ~feasible on random networks"
    ~count:15
    QCheck.(int_bound 100000)
    (fun seed ->
      let inst = Residential.generate (Rng.create seed) in
      let g = Builder.graph inst Builder.Hybrid in
      let dom = Domain.of_instance inst Builder.Hybrid g in
      let comb = Multipath.find g dom ~src:0 ~dst:(Multigraph.n_nodes g - 1) in
      match Multipath.routes comb with
      | [] -> true
      | routes ->
        let p = Problem.make g dom ~flows:[ routes ] in
        let res = Multi_cc.solve ~slots:4000 p in
        (* Allow a small overshoot: the fixed step size hovers around
           the optimum. *)
        Problem.feasible ~slack:0.08 p res.Cc_result.rates)

(* --- Pinned outputs ---

   The controller, the facade's allocation and the LP and backpressure
   baselines on fixed inputs, pinned bit for bit (results as
   [Int64.bits_of_float], each controller trace as the MD5 of its
   bits). The differential above compares the kernel with an oracle
   kept in step with it; this case ties the production path itself to
   the values every figure and golden was generated with. *)

let bits_hex a =
  Array.to_list a
  |> List.map (fun v -> Printf.sprintf "%016Lx" (Int64.bits_of_float v))
  |> String.concat ""

let trace_digest trace =
  Array.to_list trace |> List.map bits_hex |> String.concat "" |> Digest.string
  |> Digest.to_hex

let residential_problem ~seed ~delta pairs =
  let inst = Residential.generate (Rng.create seed) in
  let g = Builder.graph inst Builder.Hybrid in
  let dom = Domain.of_instance inst Builder.Hybrid g in
  let flows =
    List.filter
      (fun rs -> rs <> [])
      (List.map
         (fun (src, dst) -> Multipath.routes (Multipath.find g dom ~src ~dst))
         pairs)
  in
  (g, dom, flows, Problem.make ~delta g dom ~flows)

let pinned_outputs () =
  let solves =
    List.concat_map
      (fun (name, seed, delta, pairs) ->
        let g, dom, flows, p = residential_problem ~seed ~delta pairs in
        let run tag res =
          ( Printf.sprintf "%s %s" name tag,
            Array.append res.Cc_result.rates res.Cc_result.flow_rates,
            Some (trace_digest res.Cc_result.trace) )
        in
        [
          run "plain" (Multi_cc.solve ~slots:600 p);
          run "x_init+stop_tol"
            (Multi_cc.solve ~x_init:(routing_init g dom flows) ~stop_tol:0.05
               ~slots:1200 p);
        ])
      [ ("solve res77", 77, 0.0, [ (0, 9); (3, 7) ]); ("solve res13", 13, 0.05, [ (0, 5); (2, 8); (6, 1) ]) ]
  in
  let allocation name net flows =
    let a = Empower.allocate net ~flows in
    ( name,
      Array.concat (a.Empower.flow_rates :: Array.to_list a.Empower.route_rates),
      Some (trace_digest a.Empower.cc.Cc_result.trace) )
  in
  let fig1_net =
    Empower.of_edges ~n_nodes:3 ~n_techs:2 [ (0, 1, 0, 15.0); (1, 2, 0, 30.0); (0, 1, 1, 10.0) ]
  in
  let res77 = Empower.of_instance (Residential.generate (Rng.create 77)) Builder.Hybrid in
  (* A six-node WiFi chain whose interference neighbourhoods are
     larger than its cliques, so the two LP models differ. *)
  let chain =
    let n = 6 in
    let g =
      Multigraph.create ~n_nodes:n ~n_techs:1
        ~edges:(List.init (n - 1) (fun i -> (i, i + 1, 0, 10.0 +. float_of_int i)))
    in
    ( g,
      Domain.standard ~cs_factor:1.0 g
        ~techs:[| Technology.wifi ~index:0 ~channel:1 |]
        ~positions:(Array.init n (fun i -> { Geometry.x = float_of_int i *. 20.0; y = 0.0 }))
        ~panels:(Array.make n 0) )
  in
  let lp model tag =
    let g, dom = chain in
    [
      ( "max_throughput " ^ tag,
        [| Opt_solver.max_throughput model g dom ~src:0 ~dst:5 |],
        None );
      ("max_utility " ^ tag, Opt_solver.max_utility model g dom ~flows:[ (0, 5); (1, 3) ], None);
    ]
  in
  let bp =
    let g = Multigraph.create ~n_nodes:2 ~n_techs:1 ~edges:[ (0, 1, 0, 10.0) ] in
    let r =
      Backpressure.run ~slots:6000 g (Domain.single_domain_per_tech g) ~flows:[ (0, 1); (0, 1) ]
    in
    ("backpressure two flows", r.Backpressure.flow_rates, Some (trace_digest r.Backpressure.trace))
  in
  solves
  @ [ allocation "allocate fig1" fig1_net [ (0, 2) ]; allocation "allocate res77 0->9" res77 [ (0, 9) ] ]
  @ lp Rate_region.Exact "exact"
  @ lp Rate_region.Conservative "conservative"
  @ [ bp ]

let pinned =
  [
    ("solve res77 plain",
     "40300ec1e1e97d47402f129e1f7b0c3f4030103f4ec3569a402e63aa8b9ecaae403f9810f1a70366403f42149492bbf1",
     Some "08c70e23f2c477afdce5229faf9caf33");
    ("solve res77 x_init+stop_tol",
     "4036e19852eb772a402a81cc5eb402944034fdcc9901fc66402829ba575237114042113f4122bc3a40408954e2558bf7",
     Some "9a1779b09f9c226dc479dcb7c4b2b201");
    ("solve res13 plain",
     "402b07e2b7074b9c40241bf2a4e29d80402875a871ec70ab4025f532d43bb652402a98e260b81fd14008a9dcb8fe0edb403791eaadf4f48e4037356da314137e403061acc77bd1c4",
     Some "788195ec86a6f31a415c4f8533253249");
    ("solve res13 x_init+stop_tol",
     "40310a2db7b571914022428b8a5100c5402c4bd05680c3f94026d413120a3b534031672c2b62ca203fa99415809d2694403a2b737cddf1f440398ff1b4457fa6403173f6362318b3",
     Some "112ba63aa0edb9ded03ade45e0bcee00");
    ("allocate fig1",
     "4030aab065c2f4ae40240009ed190c66401aaaadbcd9b9ee",
     Some "924cdb1f154f9f06ccad0f665913f616");
    ("allocate res77 0->9",
     "40585ddb834ed45a4057ae560c25cf774005f0aee5209c69",
     Some "abe127b721d753dad8f31f0bd80f309b");
    ("max_throughput exact",
     "400d2bd865d591ae",
     None);
    ("max_utility exact",
     "3ffa410f86291fc04009408e7e1f2c38",
     None);
    ("max_throughput conservative",
     "4002ee421b02d592",
     None);
    ("max_utility conservative",
     "3fec755d22716675400ca86660ff0235",
     None);
    ("backpressure two flows",
     "40140000000000004014000000000000",
     Some "d67e655ce344620467b6b6899733dcd3")
  ]

let test_pinned_outputs () =
  let got =
    List.map (fun (name, values, trace) -> (name, bits_hex values, trace)) (pinned_outputs ())
  in
  if got <> pinned then
    Alcotest.failf "pinned outputs changed; now:\n%s"
      (String.concat "\n"
         (List.map
            (fun (name, bits, trace) ->
              Printf.sprintf "    (%S,\n     %S,\n     %s);" name bits
                (match trace with None -> "None" | Some d -> Printf.sprintf "Some %S" d))
            got))

let () =
  Alcotest.run "control"
    [
      ( "utility",
        [
          Alcotest.test_case "proportional fair" `Quick test_utility_proportional_fair;
          Alcotest.test_case "inverse roundtrip" `Quick test_utility_inverse_roundtrip;
          Alcotest.test_case "concavity" `Quick test_utility_concavity;
        ] );
      ( "problem",
        [
          Alcotest.test_case "structure" `Quick test_problem_structure;
          Alcotest.test_case "validation" `Quick test_problem_validation;
          Alcotest.test_case "airtime demand" `Quick test_airtime_demand;
          Alcotest.test_case "feasibility" `Quick test_feasibility;
        ] );
      ( "price",
        [
          Alcotest.test_case "airtimes" `Quick test_price_airtimes;
          Alcotest.test_case "gamma updates" `Quick test_price_gamma_updates;
          Alcotest.test_case "route costs" `Quick test_price_route_costs;
        ] );
      ( "kernel",
        [
          QCheck_alcotest.to_alcotest prop_kernel_matches_reference_solve;
          QCheck_alcotest.to_alcotest prop_kernel_matches_reference_prices;
          QCheck_alcotest.to_alcotest prop_dual_matches_engine_step;
          Alcotest.test_case "allocation gate" `Quick test_kernel_allocation_gate;
          Alcotest.test_case "pinned outputs" `Quick test_pinned_outputs;
        ] );
      ( "alpha",
        [
          Alcotest.test_case "initial values" `Quick test_alpha_initial;
          Alcotest.test_case "halves on oscillation" `Quick
            test_alpha_halves_on_oscillation;
          Alcotest.test_case "stable keeps alpha" `Quick test_alpha_stable_rate_keeps_alpha;
          QCheck_alcotest.to_alcotest prop_alpha_matches_reference;
        ] );
      ( "single-cc",
        [
          Alcotest.test_case "one link" `Quick test_single_cc_one_link;
          Alcotest.test_case "two flows fair" `Quick test_single_cc_two_flows_fair;
        ] );
      ( "multi-cc",
        [
          Alcotest.test_case "figure 1 optimum" `Quick test_multi_cc_fig1;
          Alcotest.test_case "respects delta" `Quick test_multi_cc_respects_delta;
          Alcotest.test_case "offloads under contention" `Quick
            test_multi_cc_offloads_under_contention;
          Alcotest.test_case "convergence detection" `Quick
            test_multi_cc_convergence_detection;
          Alcotest.test_case "result utility" `Quick test_cc_result_utility;
          QCheck_alcotest.to_alcotest prop_multi_cc_feasible_on_random_networks;
        ] );
    ]
