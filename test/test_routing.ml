(* Tests for the multipath-routing protocol: Lemma 1, R(P), the
   update procedure and the exploration tree, including the paper's
   Figure 1 worked example and a Figure 3-style network where the best
   isolated route is not part of the best combination. *)

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.6f, got %.6f" msg expected actual

(* Figure 1: gateway a(0), extender b(1), client c(2).
   WiFi a-b 15, WiFi b-c 30, PLC a-b 10. Links (fwd ids): wifi a->b =
   0, wifi b->c = 2, plc a->b = 4. *)
let fig1 () =
  let g =
    Multigraph.create ~n_nodes:3 ~n_techs:2
      ~edges:[ (0, 1, 0, 15.0); (1, 2, 0, 30.0); (0, 1, 1, 10.0) ]
  in
  (g, Domain.single_domain_per_tech g)

let test_lemma1_rate () =
  (* Lemma 1 via path_rate on a two-hop same-medium path: both links
     contend, R = (d1 + d2)^-1. *)
  let g =
    Multigraph.create ~n_nodes:3 ~n_techs:1 ~edges:[ (0, 1, 0, 15.0); (1, 2, 0, 30.0) ]
  in
  let dom = Domain.single_domain_per_tech g in
  let p = Paths.of_links g [ 0; 2 ] in
  check_float "R = 1/(1/15+1/30)" 10.0 (Update.path_rate g dom p)

let test_rate_no_interference () =
  (* Hybrid two-hop path with non-interfering mediums: pipeline min. *)
  let g, dom = fig1 () in
  let p = Paths.of_links g [ 4; 2 ] in
  (* PLC 10 then WiFi 30: no shared medium, R = min(10, 30) = 10. *)
  check_float "hybrid pipeline" 10.0 (Update.path_rate g dom p);
  check_float "R(l,P) on plc hop" 10.0 (Update.rate_on_link g dom p 4);
  check_float "R(l,P) on wifi hop" 30.0 (Update.rate_on_link g dom p 2)

let test_rate_zero_capacity () =
  let g =
    Multigraph.create ~n_nodes:3 ~n_techs:1 ~edges:[ (0, 1, 0, 0.0); (1, 2, 0, 30.0) ]
  in
  let dom = Domain.single_domain_per_tech g in
  let p = Paths.of_links g [ 0; 2 ] in
  check_float "dead hop -> 0" 0.0 (Update.path_rate g dom p)

let test_idle_fraction_and_update () =
  let g, dom = fig1 () in
  (* Route 1 = PLC a->b (link 4), WiFi b->c (link 2); R = 10. *)
  let p = Paths.of_links g [ 4; 2 ] in
  (* PLC hop is the bottleneck: idle 0. WiFi b->c consumed 10/30. *)
  check_float "bottleneck idle" 0.0 (Update.idle_fraction g dom p 4);
  check_float "wifi idle" (2.0 /. 3.0) (Update.idle_fraction g dom p 2);
  (* WiFi a->b shares the medium with b->c: same 2/3 idle. *)
  check_float "other wifi idle" (2.0 /. 3.0) (Update.idle_fraction g dom p 0);
  let g' = Update.update g dom p in
  check_float "plc zeroed" 0.0 (Multigraph.capacity g' 4);
  check_float "wifi b->c scaled" 20.0 (Multigraph.capacity g' 2);
  check_float "wifi a->b scaled" 10.0 (Multigraph.capacity g' 0);
  (* Original untouched. *)
  check_float "orig" 10.0 (Multigraph.capacity g 4)

let test_update_leaves_far_links () =
  (* A link in a different medium and different location must keep its
     capacity. *)
  let g =
    Multigraph.create ~n_nodes:4 ~n_techs:2
      ~edges:[ (0, 1, 0, 10.0); (2, 3, 1, 42.0) ]
  in
  let dom = Domain.single_domain_per_tech g in
  let p = Paths.of_links g [ 0 ] in
  let g' = Update.update g dom p in
  check_float "other medium untouched" 42.0 (Multigraph.capacity g' 2)

(* Figure 1's headline result: EMPoWER finds the two routes and their
   combined capacity 10 + 6.6 = 16.6 Mbps. *)
let test_fig1_combination () =
  let g, dom = fig1 () in
  let comb = Multipath.find g dom ~src:0 ~dst:2 in
  Alcotest.(check int) "two routes" 2 (List.length comb.Multipath.paths);
  check_float ~eps:0.01 "total 10 + 20/3" (10.0 +. (20.0 /. 3.0))
    comb.Multipath.total_rate;
  let rates = List.map snd comb.Multipath.paths in
  check_float ~eps:0.01 "first route rate" 10.0 (List.hd rates);
  check_float ~eps:0.01 "second route rate" (20.0 /. 3.0) (List.nth rates 1);
  (* 66% improvement over the best single route, as in the paper. *)
  match Single_path.route_rate g dom ~src:0 ~dst:2 with
  | None -> Alcotest.fail "single path missing"
  | Some (_, r) ->
    Alcotest.(check bool) "66% gain" true
      (comb.Multipath.total_rate /. r > 1.6)

(* A Figure 3-style network: the best isolated route is NOT part of
   the best combination. Mediums A (tech 0) and B (tech 1), single
   collision domain each.

     Route 1: s -A-> a -A-> d   caps 20/20, R = 10
     Route 2: s -A-> c -B-> d   caps 11/11, R = 11 (best isolated)
     Route 3: s -B-> b -B-> d   caps 20/20, R = 10

   Route 2 consumes all airtime of both mediums; Routes 1+3 coexist
   for a total of 20. *)
let fig3_style () =
  let g =
    Multigraph.create ~n_nodes:5 ~n_techs:2
      ~edges:
        [
          (0, 1, 0, 20.0) (* s-a  A  id 0 *);
          (1, 4, 0, 20.0) (* a-d  A  id 2 *);
          (0, 2, 0, 11.0) (* s-c  A  id 4 *);
          (2, 4, 1, 11.0) (* c-d  B  id 6 *);
          (0, 3, 1, 20.0) (* s-b  B  id 8 *);
          (3, 4, 1, 20.0) (* b-d  B  id 10 *);
        ]
  in
  (g, Domain.single_domain_per_tech g)

let test_fig3_best_isolated_route () =
  let g, dom = fig3_style () in
  (* Depth-1 exploration = the best isolated route by rate. *)
  let comb = Multipath.find ~max_depth:1 g dom ~src:0 ~dst:4 in
  Alcotest.(check int) "one route" 1 (List.length comb.Multipath.paths);
  check_float ~eps:1e-6 "best isolated = 11" 11.0 comb.Multipath.total_rate;
  (* ... which differs from the single-path procedure's choice (the
     CSC-weighted shortest path is Route 1 or 3, cost 0.15 < 0.18). *)
  match Single_path.route_rate g dom ~src:0 ~dst:4 with
  | None -> Alcotest.fail "no single path"
  | Some (_, r) -> check_float ~eps:1e-6 "single-path proc rate" 10.0 r

let test_fig3_combination_excludes_best_isolated () =
  let g, dom = fig3_style () in
  let comb = Multipath.find g dom ~src:0 ~dst:4 in
  check_float ~eps:1e-6 "total 20" 20.0 comb.Multipath.total_rate;
  Alcotest.(check int) "two routes" 2 (List.length comb.Multipath.paths);
  (* Neither chosen route goes through node c (the Route-2 relay). *)
  List.iter
    (fun (p, _) ->
      Alcotest.(check bool) "route avoids c" false (List.mem 2 (Paths.nodes g p)))
    comb.Multipath.paths

let test_multipath_unreachable () =
  let g = Multigraph.create ~n_nodes:3 ~n_techs:1 ~edges:[ (0, 1, 0, 10.0) ] in
  let dom = Domain.single_domain_per_tech g in
  let comb = Multipath.find g dom ~src:0 ~dst:2 in
  Alcotest.(check int) "no routes" 0 (List.length comb.Multipath.paths);
  check_float "zero rate" 0.0 comb.Multipath.total_rate

let test_multipath_single_link_network () =
  let g = Multigraph.create ~n_nodes:2 ~n_techs:1 ~edges:[ (0, 1, 0, 50.0) ] in
  let dom = Domain.single_domain_per_tech g in
  let comb = Multipath.find g dom ~src:0 ~dst:1 in
  Alcotest.(check int) "one route" 1 (List.length comb.Multipath.paths);
  check_float "full capacity" 50.0 comb.Multipath.total_rate;
  Alcotest.(check int) "depth 1" 1 comb.Multipath.tree_depth

let test_multipath_parallel_mediums_aggregate () =
  (* Two parallel one-hop links on different mediums aggregate. *)
  let g =
    Multigraph.create ~n_nodes:2 ~n_techs:2 ~edges:[ (0, 1, 0, 30.0); (0, 1, 1, 20.0) ]
  in
  let dom = Domain.single_domain_per_tech g in
  let comb = Multipath.find g dom ~src:0 ~dst:1 in
  check_float "30 + 20" 50.0 comb.Multipath.total_rate;
  Alcotest.(check int) "two routes" 2 (List.length comb.Multipath.paths)

let test_multipath_single_medium_no_gain () =
  (* Two disjoint two-hop routes in ONE medium: no multiplexing gain;
     the procedure must not return a second path that adds nothing.
     Route A: 0-1-3 (20/20), Route B: 0-2-3 (20/20), all same medium:
     after Route A (R=10) everything shares the collision domain and
     is scaled by idle fraction... Route A consumes all airtime, so
     the tree stops at depth 1. *)
  let g =
    Multigraph.create ~n_nodes:4 ~n_techs:1
      ~edges:[ (0, 1, 0, 20.0); (1, 3, 0, 20.0); (0, 2, 0, 20.0); (2, 3, 0, 20.0) ]
  in
  let dom = Domain.single_domain_per_tech g in
  let comb = Multipath.find g dom ~src:0 ~dst:3 in
  check_float ~eps:1e-6 "R = 10 total" 10.0 comb.Multipath.total_rate;
  Alcotest.(check int) "single route" 1 (List.length comb.Multipath.paths)

let test_multipath_n1_vs_n5 () =
  (* With n = 1 the tree can only follow the CSC-shortest path chain;
     with n = 5 it must do at least as well. *)
  let g, dom = fig3_style () in
  let c1 = Multipath.find ~n:1 g dom ~src:0 ~dst:4 in
  let c5 = Multipath.find ~n:5 g dom ~src:0 ~dst:4 in
  Alcotest.(check bool) "n=5 >= n=1" true
    (c5.Multipath.total_rate >= c1.Multipath.total_rate -. 1e-9)

let test_routes_accessor () =
  let g, dom = fig1 () in
  let comb = Multipath.find g dom ~src:0 ~dst:2 in
  Alcotest.(check int) "routes list" (List.length comb.Multipath.paths)
    (List.length (Multipath.routes comb))

(* --- alternative metrics (footnote 7) --- *)

let test_metrics_names_and_weights () =
  Alcotest.(check int) "five metrics" 5 (List.length Metrics.all);
  let g, dom = fig1 () in
  (* ETT weight is d_l. *)
  check_float "ett weight" (1.0 /. 15.0) (Metrics.link_weight Metrics.Ett g dom 0);
  (* IRU multiplies by the domain size (4 wifi links here). *)
  check_float "iru weight" (4.0 /. 15.0) (Metrics.link_weight Metrics.Iru g dom 0);
  (* CATT sums d over the domain: 2/15 + 2/30. *)
  check_float "catt weight"
    ((2.0 /. 15.0) +. (2.0 /. 30.0))
    (Metrics.link_weight Metrics.Catt g dom 0)

let test_metrics_routes_valid () =
  let inst = Residential.generate (Rng.create 77) in
  let g = Builder.graph inst Builder.Hybrid in
  let dom = Domain.of_instance inst Builder.Hybrid g in
  List.iter
    (fun m ->
      match Metrics.route m g dom ~src:0 ~dst:9 with
      | None -> Alcotest.failf "%s found no route" (Metrics.name m)
      | Some (p, cost) ->
        Alcotest.(check bool) "valid endpoints" true
          (Paths.src g p = 0 && Paths.dst g p = 9);
        Alcotest.(check bool) "finite cost" true (Float.is_finite cost))
    Metrics.all

let test_metrics_ett_ignores_csc () =
  (* On the test_dijkstra_no_csc network, ETT must pick the
     higher-capacity same-tech route that the CSC metric avoids. *)
  let g =
    Multigraph.create ~n_nodes:4 ~n_techs:2
      ~edges:[ (0, 1, 0, 25.0); (1, 3, 0, 25.0); (0, 2, 0, 20.0); (2, 3, 1, 20.0) ]
  in
  let dom = Domain.single_domain_per_tech g in
  (match Metrics.route Metrics.Ett g dom ~src:0 ~dst:3 with
  | Some (p, _) -> Alcotest.(check (list int)) "ett same-tech" [ 0; 0 ] (Paths.techs g p)
  | None -> Alcotest.fail "no ett route");
  match Metrics.route Metrics.Empower_csc g dom ~src:0 ~dst:3 with
  | Some (p, _) ->
    Alcotest.(check (list int)) "empower alternates" [ 0; 1 ] (Paths.techs g p)
  | None -> Alcotest.fail "no empower route"

let test_optimal_csc_cost_and_route () =
  (* Tech report: w_ns = 0, w_s = -min(d_in, d_out). On a tie between
     a same-tech and an alternating route of equal capacities, the
     optimal CSC strictly prefers alternation. *)
  let g =
    Multigraph.create ~n_nodes:4 ~n_techs:2
      ~edges:[ (0, 1, 0, 20.0); (1, 3, 0, 20.0); (0, 2, 0, 20.0); (2, 3, 1, 20.0) ]
  in
  let dom = Domain.single_domain_per_tech g in
  let same_tech = Paths.of_links g [ 0; 2 ] in
  let alternating = Paths.of_links g [ 4; 6 ] in
  check_float "same tech: plain sum" 0.1 (Metrics.optimal_csc_cost g same_tech);
  check_float "alternating: rewarded" (0.1 -. 0.05)
    (Metrics.optimal_csc_cost g alternating);
  match Metrics.route Metrics.Optimal_csc g dom ~src:0 ~dst:3 with
  | Some (p, c) ->
    Alcotest.(check (list int)) "picks alternation" [ 0; 1 ] (Paths.techs g p);
    check_float "reranked cost" 0.05 c
  | None -> Alcotest.fail "no route"

(* Property tests on random hybrid networks. *)

let random_instance seed =
  let rng = Rng.create seed in
  Residential.generate rng

let prop_update_shrinks_capacities =
  QCheck.Test.make ~name:"update never increases capacities" ~count:60
    QCheck.(int_bound 100000)
    (fun seed ->
      let inst = random_instance seed in
      let g = Builder.graph inst Builder.Hybrid in
      let dom = Domain.of_instance inst Builder.Hybrid g in
      match Single_path.route g ~src:0 ~dst:(Multigraph.n_nodes g - 1) with
      | None -> true
      | Some (p, _) ->
        let g' = Update.update g dom p in
        let ok = ref true in
        for l = 0 to Multigraph.num_links g - 1 do
          if Multigraph.capacity g' l > Multigraph.capacity g l +. 1e-9 then ok := false
        done;
        !ok)

let prop_update_zeroes_bottleneck =
  QCheck.Test.make ~name:"update zeroes at least one path link" ~count:60
    QCheck.(int_bound 100000)
    (fun seed ->
      let inst = random_instance (seed + 13) in
      let g = Builder.graph inst Builder.Hybrid in
      let dom = Domain.of_instance inst Builder.Hybrid g in
      match Single_path.route g ~src:0 ~dst:(Multigraph.n_nodes g - 1) with
      | None -> true
      | Some (p, _) ->
        if Update.path_rate g dom p <= 0.0 then true
        else begin
          let g' = Update.update g dom p in
          List.exists (fun l -> Multigraph.capacity g' l < 1e-9) p.Paths.links
        end)

let prop_combination_at_least_single_path =
  QCheck.Test.make ~name:"combination total >= single-path rate" ~count:40
    QCheck.(int_bound 100000)
    (fun seed ->
      let inst = random_instance (seed + 29) in
      let g = Builder.graph inst Builder.Hybrid in
      let dom = Domain.of_instance inst Builder.Hybrid g in
      let src = 0 and dst = Multigraph.n_nodes g - 1 in
      match Single_path.route_rate g dom ~src ~dst with
      | None -> true
      | Some (_, r) ->
        let comb = Multipath.find g dom ~src ~dst in
        comb.Multipath.total_rate >= r -. 1e-6)

let prop_routes_valid =
  QCheck.Test.make ~name:"returned routes are loopless src->dst paths" ~count:40
    QCheck.(int_bound 100000)
    (fun seed ->
      let inst = random_instance (seed + 41) in
      let g = Builder.graph inst Builder.Hybrid in
      let dom = Domain.of_instance inst Builder.Hybrid g in
      let src = 0 and dst = Multigraph.n_nodes g - 1 in
      let comb = Multipath.find g dom ~src ~dst in
      List.for_all
        (fun (p, r) ->
          Paths.is_loopless g p && Paths.src g p = src && Paths.dst g p = dst && r > 0.0)
        comb.Multipath.paths)

(* --- Compiled routing kernel against the reference oracle --- *)

module R = Ref_routing

let bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_path (p, c) (p', c') = p.Paths.links = p'.Paths.links && bits_eq c c'

let same_result a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> same_path x y
  | Some _, None | None, Some _ -> false

let same_paths xs ys = List.length xs = List.length ys && List.for_all2 same_path xs ys

type kernel_case = {
  kg : Multigraph.t;
  techs : Technology.t array;
  positions : Geometry.point array;
  panels : int array;
  rng : Rng.t;
}

(* A random residential, enterprise or testbed instance under one of
   the three scenarios, or a property-suite multigraph with some links
   at zero capacity and a random geometry and technology table. *)
let kernel_case seed =
  let rng = Rng.create (0x6B3D + seed) in
  match Rng.int rng 4 with
  | 3 ->
    let c = Prop_gen.case_of_seed seed in
    let caps = Multigraph.capacities c.Prop_gen.g in
    Array.iteri (fun l _ -> if Rng.float rng < 0.2 then caps.(l) <- 0.0) caps;
    let g = Multigraph.with_capacities c.Prop_gen.g caps in
    let n = Multigraph.n_nodes g in
    {
      kg = g;
      techs =
        Array.init (Multigraph.n_techs g) (fun index ->
            if Rng.bool rng then Technology.plc ~index
            else Technology.wifi ~index ~channel:(1 + index));
      positions =
        Array.init n (fun _ -> Geometry.uniform_in_rect rng ~width:80.0 ~height:60.0);
      panels = Array.init n (fun _ -> Rng.int rng 2);
      rng;
    }
  | kind ->
    let inst =
      match kind with
      | 0 -> Residential.generate rng
      | 1 -> Enterprise.generate rng
      | _ -> Testbed.generate rng
    in
    let scen = [| Builder.Hybrid; Builder.Single_wifi; Builder.Multi_wifi |].(Rng.int rng 3) in
    {
      kg = Builder.graph inst scen;
      techs = Builder.techs scen;
      positions = Array.map (fun nd -> nd.Builder.pos) inst.Builder.nodes;
      panels = Array.map (fun nd -> nd.Builder.panel) inst.Builder.nodes;
      rng;
    }

let random_pair c =
  let n = Multigraph.n_nodes c.kg in
  let src = Rng.int c.rng n in
  (src, (src + 1 + Rng.int c.rng (n - 1)) mod n)

let random_init_tech c =
  if Rng.bool c.rng then None else Some (Rng.int c.rng (Multigraph.n_techs c.kg))

(* A capacity view of the case's graph: some links dead, some scaled. *)
let random_view c =
  let caps = Multigraph.capacities c.kg in
  Array.iteri
    (fun l cap ->
      let u = Rng.float c.rng in
      if u < 0.15 then caps.(l) <- 0.0
      else if u < 0.5 then caps.(l) <- cap *. Rng.uniform c.rng 0.01 1.0)
    caps;
  Multigraph.with_capacities c.kg caps

let case_dom c =
  let cs_factor = Rng.uniform c.rng 0.3 2.5 in
  let dom =
    Domain.standard ~cs_factor c.kg ~techs:c.techs ~positions:c.positions ~panels:c.panels
  in
  let ref_dom =
    R.Domain.standard ~cs_factor c.kg ~techs:c.techs ~positions:c.positions
      ~panels:c.panels
  in
  (dom, ref_dom)

let same_domain dom (matrix, domains) =
  let n = Array.length matrix in
  Domain.num_links dom = n
  && List.for_all
       (fun l ->
         Domain.domain dom l = domains.(l)
         && List.for_all (fun l' -> Domain.interferes dom l l' = matrix.(l).(l')) (List.init n Fun.id))
       (List.init n Fun.id)

let prop_kernel_domain =
  QCheck.Test.make ~name:"Domain.standard and create match the oracle" ~count:150
    QCheck.(int_bound 100000)
    (fun seed ->
      let c = kernel_case seed in
      let dom, ref_dom = case_dom c in
      let m = Multigraph.num_links c.kg in
      (* An asymmetric random predicate: create must symmetrize it. *)
      let pred = Array.init m (fun _ -> Array.init m (fun _ -> Rng.float c.rng < 0.2)) in
      let interferes l l' = pred.(l).(l') in
      same_domain dom ref_dom
      && same_domain (Domain.create c.kg ~interferes) (R.Domain.create c.kg ~interferes))

let prop_kernel_dijkstra =
  QCheck.Test.make ~name:"compiled Dijkstra matches the oracle, with bans and refresh"
    ~count:150
    QCheck.(int_bound 100000)
    (fun seed ->
      let c = kernel_case seed in
      let csc = Rng.bool c.rng in
      let s = Dijkstra.compile ~csc c.kg in
      let n = Multigraph.n_nodes c.kg and m = Multigraph.num_links c.kg in
      List.for_all
        (fun _ ->
          let g = if Rng.bool c.rng then c.kg else random_view c in
          Dijkstra.refresh s g;
          let src, dst = random_pair c in
          let init_tech = random_init_tech c in
          let one_shot =
            same_result
              (Dijkstra.shortest_path ~csc ?init_tech g ~src ~dst)
              (R.Dijkstra.shortest_path ~csc ?init_tech g ~src ~dst)
          in
          let banned_links = Array.init m (fun _ -> Rng.float c.rng < 0.15) in
          let banned_nodes = Array.init n (fun _ -> Rng.float c.rng < 0.15) in
          Dijkstra.clear_bans s;
          Array.iteri (fun l b -> if b then Dijkstra.ban_link s l) banned_links;
          Array.iteri (fun u b -> if b then Dijkstra.ban_node s u) banned_nodes;
          let constraints =
            {
              R.Dijkstra.banned_links = (fun l -> banned_links.(l));
              banned_nodes = (fun u -> banned_nodes.(u));
            }
          in
          let banned =
            same_result
              (Dijkstra.search ?init_tech s ~src ~dst)
              (R.Dijkstra.shortest_path ~csc ~constraints ?init_tech g ~src ~dst)
          in
          Dijkstra.clear_bans s;
          let cost_ok =
            match R.Dijkstra.shortest_path ~csc g ~src ~dst with
            | None -> true
            | Some (p, _) ->
              bits_eq
                (Dijkstra.cost ?init_tech s p.Paths.links)
                (R.Dijkstra.path_cost ~csc ?init_tech g p)
              && bits_eq (Dijkstra.path_cost ~csc g p) (R.Dijkstra.path_cost ~csc g p)
          in
          let wns_ok = bits_eq (Dijkstra.wns g src) (R.Dijkstra.wns g src) in
          one_shot && banned && cost_ok && wns_ok)
        (List.init 6 Fun.id))

let prop_kernel_yen =
  QCheck.Test.make ~name:"Yen matches the oracle, one-shot and on a reused search"
    ~count:150
    QCheck.(int_bound 100000)
    (fun seed ->
      let c = kernel_case seed in
      let csc = Rng.bool c.rng in
      let k = 1 + Rng.int c.rng 8 in
      let src, dst = random_pair c in
      let one_shot =
        same_paths (Yen.k_shortest ~csc c.kg ~src ~dst ~k)
          (R.Yen.k_shortest ~csc c.kg ~src ~dst ~k)
      in
      let s = Dijkstra.compile ~csc c.kg in
      ignore (Yen.search s ~src ~dst ~k);
      let g = random_view c in
      Dijkstra.refresh s g;
      let src, dst = random_pair c in
      one_shot && same_paths (Yen.search s ~src ~dst ~k) (R.Yen.k_shortest ~csc g ~src ~dst ~k))

let prop_kernel_update =
  QCheck.Test.make ~name:"R(P), r(l,P) and update(P,G) match the oracle" ~count:150
    QCheck.(int_bound 100000)
    (fun seed ->
      let c = kernel_case seed in
      let dom, _ = case_dom c in
      let g = if Rng.bool c.rng then c.kg else random_view c in
      let src, dst = random_pair c in
      let m = Multigraph.num_links g in
      List.for_all
        (fun (p, _) ->
          let g' = Update.update g dom p and g'' = R.Update.update g dom p in
          bits_eq (Update.path_rate g dom p) (R.Update.path_rate g dom p)
          && List.for_all
               (fun l ->
                 bits_eq (Update.rate_on_link g dom p l) (R.Update.rate_on_link g dom p l))
               p.Paths.links
          && List.for_all
               (fun l ->
                 bits_eq (Update.idle_fraction g dom p l) (R.Update.idle_fraction g dom p l)
                 && bits_eq (Multigraph.capacity g' l) (Multigraph.capacity g'' l))
               (List.init m Fun.id))
        (R.Yen.k_shortest g ~src ~dst ~k:3))

let same_combination (a : Multipath.combination) (b : Multipath.combination) =
  same_paths a.Multipath.paths b.Multipath.paths
  && bits_eq a.Multipath.total_rate b.Multipath.total_rate
  && a.Multipath.tree_depth = b.Multipath.tree_depth
  && a.Multipath.tree_vertices = b.Multipath.tree_vertices

let prop_kernel_multipath =
  QCheck.Test.make ~name:"Multipath.find matches the oracle" ~count:100
    QCheck.(int_bound 100000)
    (fun seed ->
      let c = kernel_case seed in
      let dom, _ = case_dom c in
      let n = 1 + Rng.int c.rng 5 and csc = Rng.bool c.rng in
      let max_depth = 1 + Rng.int c.rng 6 in
      let src, dst = random_pair c in
      same_combination
        (Multipath.find ~n ~csc ~max_depth c.kg dom ~src ~dst)
        (R.Multipath.find ~n ~csc ~max_depth c.kg dom ~src ~dst))

(* A search run a second time on a compiled residential graph may
   allocate its result only: 3 words per link-list cell, 2 for the
   Paths.t record, 2 for the boxed cost, 3 for the pair and 2 for the
   option, i.e. 3 * hops + 9 words. *)
let test_search_allocation () =
  let inst = Residential.generate (Rng.create 11) in
  let g = Builder.graph inst Builder.Hybrid in
  let s = Dijkstra.compile g in
  let hops dst =
    match Dijkstra.search s ~src:0 ~dst with Some (p, _) -> Paths.hops p | None -> 0
  in
  (* The destination with the longest shortest path from node 0. *)
  let dst =
    List.fold_left
      (fun best v -> if hops v > hops best then v else best)
      1
      (List.init (Multigraph.n_nodes g - 2) (fun i -> i + 2))
  in
  let h = hops dst in
  (* Start from an empty minor heap, so no collection lands inside the
     measured search. *)
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let r = Sys.opaque_identity (Dijkstra.search s ~src:0 ~dst) in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "found" true (Option.is_some r);
  let budget = float_of_int ((3 * h) + 9) in
  if words > budget then
    Alcotest.failf "second search over %d hops allocated %.0f words (budget %.0f)" h words
      budget

(* The exploration tree on the pinned residential case, flow 0 -> 9. *)
let test_multipath_find_words () =
  let _, g, dom = Lazy.force Alloc_probe.residential_case in
  Alloc_probe.check_words ~budget:18503.0 "Multipath.find" (fun () ->
      Multipath.find g dom ~src:0 ~dst:9)

let () =
  Alcotest.run "routing"
    [
      ( "rates",
        [
          Alcotest.test_case "lemma 1" `Quick test_lemma1_rate;
          Alcotest.test_case "hybrid pipeline" `Quick test_rate_no_interference;
          Alcotest.test_case "zero capacity" `Quick test_rate_zero_capacity;
        ] );
      ( "update",
        [
          Alcotest.test_case "idle fractions + update" `Quick
            test_idle_fraction_and_update;
          Alcotest.test_case "far links untouched" `Quick test_update_leaves_far_links;
        ] );
      ( "multipath",
        [
          Alcotest.test_case "figure 1 combination" `Quick test_fig1_combination;
          Alcotest.test_case "figure 3: best isolated" `Quick
            test_fig3_best_isolated_route;
          Alcotest.test_case "figure 3: combination" `Quick
            test_fig3_combination_excludes_best_isolated;
          Alcotest.test_case "unreachable" `Quick test_multipath_unreachable;
          Alcotest.test_case "single link" `Quick test_multipath_single_link_network;
          Alcotest.test_case "parallel mediums aggregate" `Quick
            test_multipath_parallel_mediums_aggregate;
          Alcotest.test_case "single medium: no fake gain" `Quick
            test_multipath_single_medium_no_gain;
          Alcotest.test_case "n=1 vs n=5" `Quick test_multipath_n1_vs_n5;
          Alcotest.test_case "routes accessor" `Quick test_routes_accessor;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "weights" `Quick test_metrics_names_and_weights;
          Alcotest.test_case "routes valid" `Quick test_metrics_routes_valid;
          Alcotest.test_case "ett vs csc" `Quick test_metrics_ett_ignores_csc;
          Alcotest.test_case "optimal csc" `Quick test_optimal_csc_cost_and_route;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_update_shrinks_capacities;
          QCheck_alcotest.to_alcotest prop_update_zeroes_bottleneck;
          QCheck_alcotest.to_alcotest prop_combination_at_least_single_path;
          QCheck_alcotest.to_alcotest prop_routes_valid;
        ] );
      ( "kernel",
        [
          QCheck_alcotest.to_alcotest prop_kernel_domain;
          QCheck_alcotest.to_alcotest prop_kernel_dijkstra;
          QCheck_alcotest.to_alcotest prop_kernel_yen;
          QCheck_alcotest.to_alcotest prop_kernel_update;
          QCheck_alcotest.to_alcotest prop_kernel_multipath;
          Alcotest.test_case "search allocates only its result" `Quick
            test_search_allocation;
          Alcotest.test_case "multipath allocation gate" `Quick
            test_multipath_find_words;
        ] );
    ]
