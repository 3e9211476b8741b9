(* Tests for interference domains and maximal-clique enumeration. *)

let test_single_domain_per_tech () =
  let g =
    Multigraph.create ~n_nodes:4 ~n_techs:2
      ~edges:[ (0, 1, 0, 10.0); (2, 3, 0, 10.0); (0, 1, 1, 10.0) ]
  in
  let dom = Domain.single_domain_per_tech g in
  (* Same tech, even far apart: interfere. *)
  Alcotest.(check bool) "wifi-wifi" true (Domain.interferes dom 0 2);
  (* Different techs never interfere. *)
  Alcotest.(check bool) "wifi-plc" false (Domain.interferes dom 0 4);
  (* Self and peer always interfere. *)
  Alcotest.(check bool) "self" true (Domain.interferes dom 0 0);
  Alcotest.(check bool) "peer" true (Domain.interferes dom 0 1);
  Alcotest.(check int) "num links" 6 (Domain.num_links dom)

let test_domain_contents () =
  let g =
    Multigraph.create ~n_nodes:3 ~n_techs:2
      ~edges:[ (0, 1, 0, 15.0); (1, 2, 0, 30.0); (0, 1, 1, 10.0) ]
  in
  let dom = Domain.single_domain_per_tech g in
  Alcotest.(check (list int)) "wifi domain" [ 0; 1; 2; 3 ] (Domain.domain dom 0);
  Alcotest.(check (list int)) "plc domain" [ 4; 5 ] (Domain.domain dom 4)

let test_standard_same_node_interferes () =
  (* Two WiFi links sharing a node interfere regardless of distance
     scaling. *)
  let g =
    Multigraph.create ~n_nodes:3 ~n_techs:1 ~edges:[ (0, 1, 0, 10.0); (1, 2, 0, 10.0) ]
  in
  let positions =
    [| { Geometry.x = 0.0; y = 0.0 }; { Geometry.x = 30.0; y = 0.0 };
       { Geometry.x = 60.0; y = 0.0 } |]
  in
  let dom =
    Domain.standard ~cs_factor:0.1 g
      ~techs:[| Technology.wifi ~index:0 ~channel:1 |]
      ~positions ~panels:[| 0; 0; 0 |]
  in
  Alcotest.(check bool) "shared node" true (Domain.interferes dom 0 2)

let test_standard_carrier_sense_range () =
  (* Disjoint WiFi links: interfere iff endpoints within cs range. *)
  let g =
    Multigraph.create ~n_nodes:4 ~n_techs:1 ~edges:[ (0, 1, 0, 10.0); (2, 3, 0, 10.0) ]
  in
  let mk gap =
    [| { Geometry.x = 0.0; y = 0.0 }; { Geometry.x = 10.0; y = 0.0 };
       { Geometry.x = 10.0 +. gap; y = 0.0 }; { Geometry.x = 20.0 +. gap; y = 0.0 } |]
  in
  let techs = [| Technology.wifi ~index:0 ~channel:1 |] in
  let near =
    Domain.standard ~cs_factor:1.0 g ~techs ~positions:(mk 20.0) ~panels:[| 0; 0; 0; 0 |]
  in
  Alcotest.(check bool) "within cs range" true (Domain.interferes near 0 2);
  let far =
    Domain.standard ~cs_factor:1.0 g ~techs ~positions:(mk 40.0) ~panels:[| 0; 0; 0; 0 |]
  in
  Alcotest.(check bool) "beyond cs range" false (Domain.interferes far 0 2)

let test_standard_plc_panels () =
  let g =
    Multigraph.create ~n_nodes:4 ~n_techs:1 ~edges:[ (0, 1, 0, 10.0); (2, 3, 0, 10.0) ]
  in
  let positions = Array.make 4 { Geometry.x = 0.0; y = 0.0 } in
  let techs = [| Technology.plc ~index:0 |] in
  let same =
    Domain.standard g ~techs ~positions ~panels:[| 0; 0; 0; 0 |]
  in
  Alcotest.(check bool) "same panel: one domain" true (Domain.interferes same 0 2);
  let split =
    Domain.standard g ~techs ~positions ~panels:[| 0; 0; 1; 1 |]
  in
  Alcotest.(check bool) "different panels: independent" false
    (Domain.interferes split 0 2)

let test_of_instance () =
  let rng = Rng.create 3 in
  let inst = Residential.generate rng in
  let g = Builder.graph inst Builder.Hybrid in
  let dom = Domain.of_instance inst Builder.Hybrid g in
  Alcotest.(check int) "covers all links" (Multigraph.num_links g)
    (Domain.num_links dom);
  (* Cross-technology never interferes. *)
  let links = Multigraph.links g in
  Array.iter
    (fun (a : Multigraph.link) ->
      Array.iter
        (fun (b : Multigraph.link) ->
          if a.Multigraph.tech <> b.Multigraph.tech then
            Alcotest.(check bool) "cross-tech" false
              (Domain.interferes dom a.Multigraph.id b.Multigraph.id))
        links)
    links

(* The interference-domain build of the pinned residential case. *)
let test_domain_build_words () =
  let inst, g, _ = Lazy.force Alloc_probe.residential_case in
  Alloc_probe.check_words ~budget:27550.0 "Domain.of_instance" (fun () ->
      Domain.of_instance inst Builder.Hybrid g)

let test_cliques_triangle () =
  (* Triangle graph: one maximal clique of size 3. *)
  let neighbors = function
    | 0 -> [ 1; 2 ]
    | 1 -> [ 0; 2 ]
    | 2 -> [ 0; 1 ]
    | _ -> []
  in
  Alcotest.(check (list (list int))) "triangle" [ [ 0; 1; 2 ] ]
    (Clique.bron_kerbosch ~n:3 ~neighbors)

let test_cliques_path () =
  (* Path 0-1-2: two maximal cliques {0,1} and {1,2}. *)
  let neighbors = function 0 -> [ 1 ] | 1 -> [ 0; 2 ] | 2 -> [ 1 ] | _ -> [] in
  Alcotest.(check (list (list int))) "path" [ [ 0; 1 ]; [ 1; 2 ] ]
    (Clique.bron_kerbosch ~n:3 ~neighbors)

let test_cliques_isolated () =
  let neighbors = fun _ -> [] in
  Alcotest.(check (list (list int))) "singletons" [ [ 0 ]; [ 1 ] ]
    (Clique.bron_kerbosch ~n:2 ~neighbors)

let test_cliques_two_components () =
  (* Edge 0-1 plus triangle 2-3-4. *)
  let neighbors = function
    | 0 -> [ 1 ] | 1 -> [ 0 ]
    | 2 -> [ 3; 4 ] | 3 -> [ 2; 4 ] | 4 -> [ 2; 3 ]
    | _ -> []
  in
  Alcotest.(check (list (list int))) "components" [ [ 0; 1 ]; [ 2; 3; 4 ] ]
    (Clique.bron_kerbosch ~n:5 ~neighbors)

let test_graph_cliques_cover_domains () =
  (* Every link must appear in at least one clique, and every clique
     must be a set of pairwise-interfering links. *)
  let rng = Rng.create 5 in
  let inst = Residential.generate rng in
  let g = Builder.graph inst Builder.Hybrid in
  let dom = Domain.of_instance inst Builder.Hybrid g in
  let cliques = Domain.graph_cliques dom in
  let covered = Array.make (Multigraph.num_links g) false in
  List.iter
    (fun clique ->
      List.iter (fun l -> covered.(l) <- true) clique;
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              Alcotest.(check bool) "pairwise interference" true
                (Domain.interferes dom a b))
            clique)
        clique)
    cliques;
  Alcotest.(check bool) "all links covered" true (Array.for_all Fun.id covered)

let prop_interference_symmetric =
  QCheck.Test.make ~name:"interference is symmetric" ~count:30
    QCheck.(int_bound 100000)
    (fun seed ->
      let inst = Residential.generate (Rng.create seed) in
      let g = Builder.graph inst Builder.Hybrid in
      let dom = Domain.of_instance inst Builder.Hybrid g in
      let n = Multigraph.num_links g in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if Domain.interferes dom a b <> Domain.interferes dom b a then ok := false
        done
      done;
      !ok)

let prop_domains_sorted_and_reflexive =
  QCheck.Test.make ~name:"domains sorted, contain self and peer" ~count:30
    QCheck.(int_bound 100000)
    (fun seed ->
      let inst = Enterprise.generate (Rng.create (seed + 3)) in
      let g = Builder.graph inst Builder.Hybrid in
      let dom = Domain.of_instance inst Builder.Hybrid g in
      let ok = ref true in
      for l = 0 to Multigraph.num_links g - 1 do
        let d = Domain.domain dom l in
        if not (List.mem l d) then ok := false;
        if not (List.mem (Multigraph.link g l).Multigraph.peer d) then ok := false;
        if List.sort compare d <> d then ok := false
      done;
      !ok)

let () =
  Alcotest.run "interference"
    [
      ( "domains",
        [
          Alcotest.test_case "single domain per tech" `Quick
            test_single_domain_per_tech;
          Alcotest.test_case "domain contents" `Quick test_domain_contents;
          Alcotest.test_case "shared node" `Quick test_standard_same_node_interferes;
          Alcotest.test_case "carrier-sense range" `Quick
            test_standard_carrier_sense_range;
          Alcotest.test_case "plc panels" `Quick test_standard_plc_panels;
          Alcotest.test_case "of_instance" `Quick test_of_instance;
          Alcotest.test_case "build allocation gate" `Quick
            test_domain_build_words;
        ] );
      ( "cliques",
        [
          Alcotest.test_case "triangle" `Quick test_cliques_triangle;
          Alcotest.test_case "path" `Quick test_cliques_path;
          Alcotest.test_case "isolated" `Quick test_cliques_isolated;
          Alcotest.test_case "two components" `Quick test_cliques_two_components;
          Alcotest.test_case "cover domains" `Quick test_graph_cliques_cover_domains;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_interference_symmetric;
          QCheck_alcotest.to_alcotest prop_domains_sorted_and_reflexive;
        ] );
    ]
