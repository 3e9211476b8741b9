type t =
  | Empower
  | Sp
  | Sp_wifi
  | Mp_wifi
  | Mp_mwifi
  | Mp_wo_cc
  | Sp_wo_cc
  | Mp_2bp

let all = [ Empower; Sp; Mp_wifi; Sp_wifi; Mp_mwifi; Mp_wo_cc; Sp_wo_cc; Mp_2bp ]

let name = function
  | Empower -> "EMPoWER"
  | Sp -> "SP"
  | Sp_wifi -> "SP-WiFi"
  | Mp_wifi -> "MP-WiFi"
  | Mp_mwifi -> "MP-mWiFi"
  | Mp_wo_cc -> "MP-w/o-CC"
  | Sp_wo_cc -> "SP-w/o-CC"
  | Mp_2bp -> "MP-2bp"

let scenario = function
  | Empower | Sp | Mp_wo_cc | Sp_wo_cc | Mp_2bp -> Builder.Hybrid
  | Sp_wifi | Mp_wifi -> Builder.Single_wifi
  | Mp_mwifi -> Builder.Multi_wifi

let uses_cc = function
  | Empower | Sp | Sp_wifi | Mp_wifi | Mp_mwifi | Mp_2bp -> true
  | Mp_wo_cc | Sp_wo_cc -> false

type options = {
  delta : float;
  estimate_noise : float;
  cc_slots : int;
}

let default_options = { delta = 0.0; estimate_noise = 0.0; cc_slots = 2000 }

(* The CSC only matters when there are different technologies to
   alternate; the paper sets it to 0 in WiFi-only scenarios. With two
   orthogonal WiFi channels alternation still mitigates intra-path
   interference, so we keep it for Multi_wifi. *)
let csc_for scheme =
  match scenario scheme with Builder.Single_wifi -> false | _ -> true

let routes_for ?opts:_ scheme g dom ~src ~dst =
  let csc = csc_for scheme in
  match scheme with
  | Sp | Sp_wifi | Sp_wo_cc -> (
    match Single_path.route ~csc g ~src ~dst with None -> [] | Some (p, _) -> [ p ])
  | Mp_2bp -> List.map fst (Yen.k_shortest ~csc g ~src ~dst ~k:2)
  | Empower | Mp_wifi | Mp_mwifi | Mp_wo_cc ->
    Multipath.routes (Multipath.find ~csc g dom ~src ~dst)

(* Multiplicative estimation noise on every link capacity; both
   directions of an edge see the same (measured) value. *)
let estimated_graph rng ~noise g =
  if noise <= 0.0 then g
  else begin
    let caps = Multigraph.capacities g in
    let n_links = Multigraph.num_links g in
    let l = ref 0 in
    while !l < n_links do
      let eps = Rng.gaussian rng ~mean:0.0 ~std:noise in
      let factor = Float.max 0.1 (1.0 +. eps) in
      caps.(!l) <- caps.(!l) *. factor;
      caps.(!l + 1) <- caps.(!l + 1) *. factor;
      l := !l + 2
    done;
    Multigraph.with_capacities g caps
  end

(* Sum a flat per-route list back into per-flow totals, following the
   flow_routes structure. *)
let per_flow_totals flow_routes per_route =
  let result = Array.make (List.length flow_routes) 0.0 in
  let rest = ref per_route in
  List.iteri
    (fun f ps ->
      List.iter
        (fun _ ->
          match !rest with
          | [] -> invalid_arg "per_flow_totals: list too short"
          | v :: tl ->
            result.(f) <- result.(f) +. v;
            rest := tl)
        ps)
    flow_routes;
  result

let evaluate ?(opts = default_options) rng inst scheme ~flows =
  let scen = scenario scheme in
  let g_true = Builder.graph inst scen in
  let dom = Domain.of_instance inst scen g_true in
  let g_est = estimated_graph rng ~noise:opts.estimate_noise g_true in
  (* Route selection and rate estimation run on the estimated view. *)
  let flow_routes =
    List.map (fun (s, d) -> routes_for scheme g_est dom ~src:s ~dst:d) flows
  in
  let standalone_rates =
    List.map (List.map (fun p -> Update.path_rate g_est dom p)) flow_routes
  in
  let all_routes = List.concat flow_routes in
  if all_routes = [] then Array.make (List.length flows) 0.0
  else if not (uses_cc scheme) then begin
    (* Inject each route's standalone estimate; the MAC decides what
       actually arrives. *)
    let offered = List.combine all_routes (List.concat standalone_rates) in
    let delivered = Fluid.goodput g_true dom ~offered in
    per_flow_totals flow_routes delivered
  end
  else begin
    (* Controller believes the estimated airtime costs; its allocation
       is then pushed through the MAC on the true capacities. *)
    let d_est = Array.init (Multigraph.num_links g_est) (Multigraph.d g_est) in
    let problem =
      Problem.make ~delta:opts.delta ~d:d_est g_true dom ~flows:flow_routes
    in
    let x_init = Array.of_list (List.concat standalone_rates) in
    let res = Multi_cc.solve ~x_init ~slots:opts.cc_slots ~stop_tol:0.05 problem in
    let offered =
      List.mapi (fun r p -> (p, res.Cc_result.rates.(r))) all_routes
    in
    let delivered = Fluid.goodput g_true dom ~offered in
    per_flow_totals flow_routes delivered
  end
