(* The dual arithmetic only involves links that can carry traffic
   (route links) and the links whose interference domains contain
   them (their γ enters the route prices). Restricting the per-slot
   loops to those sets makes the controller's cost independent of the
   total network size — on the 22-node testbed graph this is a ~50x
   saving.

   Every incidence structure is compiled once into CSR form: a
   [start] array of length n+1 and a flat [idx] array, row [k] being
   [idx.(start.(k)) .. idx.(start.(k+1) - 1)]. Per-slot loops
   accumulate into non-escaping local refs (which the native compiler
   keeps unboxed in registers) and write into the preallocated float
   scratch, so no slot allocates. *)

type csr = { start : int array; idx : int array }

let csr_of_rows (rows : int list array) =
  let n = Array.length rows in
  let start = Array.make (n + 1) 0 in
  Array.iteri (fun k row -> start.(k + 1) <- start.(k) + List.length row) rows;
  let idx = Array.make start.(n) 0 in
  Array.iteri (fun k row -> List.iteri (fun j v -> idx.(start.(k) + j) <- v) row) rows;
  { start; idx }

let positions is_member =
  let acc = ref [] in
  for l = Array.length is_member - 1 downto 0 do
    if is_member.(l) then acc := l :: !acc
  done;
  Array.of_list !acc

let index_of n members =
  let pos = Array.make n (-1) in
  Array.iteri (fun k l -> pos.(l) <- k) members;
  pos

module Dual = struct
  type t = {
    gamma : float array;   (* full-size; only priced entries move *)
    carriers : int array;  (* ascending links with possible demand *)
    carrier_pos : int array;  (* link -> position in [carriers], or -1 *)
    priced : int array;    (* ascending links whose γ can become nonzero *)
    priced_pos : int array;   (* link -> position in [priced], or -1 *)
    priced_carriers : csr;
        (* priced position -> carrier positions of its domain, in
           Domain.domain order *)
    demand : float array;  (* per carrier position *)
    y : float array;       (* per priced position *)
    target : float;        (* 1 - δ *)
  }

  let create dom ~delta ~is_carrier =
    let n_links = Array.length is_carrier in
    let carriers = positions is_carrier in
    let carrier_pos = index_of n_links carriers in
    (* Links whose domain touches a carrier: their γ can rise and
       feeds route prices. *)
    let is_priced = Array.make n_links false in
    Array.iter
      (fun l -> List.iter (fun i -> is_priced.(i) <- true) (Domain.domain dom l))
      carriers;
    let priced = positions is_priced in
    let priced_carriers =
      csr_of_rows
        (Array.map
           (fun i ->
             List.filter_map
               (fun l -> if carrier_pos.(l) >= 0 then Some carrier_pos.(l) else None)
               (Domain.domain dom i))
           priced)
    in
    {
      gamma = Array.make n_links 0.0;
      carriers;
      carrier_pos;
      priced;
      priced_pos = index_of n_links priced;
      priced_carriers;
      demand = Array.make (Array.length carriers) 0.0;
      y = Array.make (Array.length priced) 0.0;
      target = 1.0 -. delta;
    }

  let gamma t = t.gamma
  let carriers t = t.carriers
  let priced t = t.priced
  let demand t = t.demand

  let airtime t l =
    let p = t.priced_pos.(l) in
    if p < 0 then 0.0 else t.y.(p)

  let step t ~alpha =
    let { start; idx } = t.priced_carriers in
    for p = 0 to Array.length t.priced - 1 do
      let acc = ref 0.0 in
      for k = start.(p) to start.(p + 1) - 1 do
        acc := !acc +. t.demand.(idx.(k))
      done;
      t.y.(p) <- !acc;
      let i = t.priced.(p) in
      let upd = t.gamma.(i) +. (alpha *. (!acc -. t.target)) in
      (* [Float.max 0.0 upd], bit for bit (NaN passes through). *)
      t.gamma.(i) <- (if upd <= 0.0 then 0.0 else upd)
    done
end

type t = {
  dual : Dual.t;
  d : float array;
  carrier_routes : csr;   (* carrier position -> route ids, ascending *)
  carrier_domain : csr;   (* carrier position -> links of I_l, Domain.domain order *)
  route_carriers : csr;   (* route -> carrier positions, Paths.links order *)
  flow_routes : csr;      (* flow -> route ids, Problem.flow_routes order *)
  link_price : float array;  (* per carrier position *)
  q : float array;           (* per route *)
  flow_rate : float array;   (* per flow *)
  marginal : float array;    (* per flow: U'_f(flow rate) *)
}

let create (problem : Problem.t) =
  let n_links = Multigraph.num_links problem.Problem.g in
  let routes = problem.Problem.routes in
  let is_carrier = Array.make n_links false in
  Array.iter
    (fun p -> List.iter (fun l -> is_carrier.(l) <- true) p.Paths.links)
    routes;
  let dual =
    Dual.create problem.Problem.dom ~delta:problem.Problem.delta ~is_carrier
  in
  let carriers = dual.Dual.carriers and carrier_pos = dual.Dual.carrier_pos in
  let n_carriers = Array.length carriers in
  (* Each route is listed once per carrier it crosses, in ascending
     route order (walking routes from the last keeps the prepends
     sorted). *)
  let on_carrier = Array.make n_carriers [] in
  for r = Array.length routes - 1 downto 0 do
    List.iter
      (fun l ->
        let c = carrier_pos.(l) in
        match on_carrier.(c) with
        | r' :: _ when r' = r -> ()
        | rs -> on_carrier.(c) <- r :: rs)
      routes.(r).Paths.links
  done;
  let n_flows = Problem.n_flows problem in
  {
    dual;
    d = problem.Problem.d;
    carrier_routes = csr_of_rows on_carrier;
    carrier_domain =
      csr_of_rows (Array.map (Domain.domain problem.Problem.dom) carriers);
    route_carriers =
      csr_of_rows
        (Array.map (fun p -> List.map (fun l -> carrier_pos.(l)) p.Paths.links) routes);
    flow_routes = csr_of_rows problem.Problem.flow_routes;
    link_price = Array.make n_carriers 0.0;
    q = Array.make (Array.length routes) 0.0;
    flow_rate = Array.make n_flows 0.0;
    marginal = Array.make n_flows 0.0;
  }

let gamma t = t.dual.Dual.gamma
let q t = t.q
let marginal t = t.marginal

let airtime t l = Dual.airtime t.dual l

let step t ~x ~alpha =
  let dual = t.dual in
  let { start; idx } = t.carrier_routes in
  for c = 0 to Array.length dual.Dual.carriers - 1 do
    let l = dual.Dual.carriers.(c) in
    let traffic = ref 0.0 in
    for k = start.(c) to start.(c + 1) - 1 do
      traffic := !traffic +. x.(idx.(k))
    done;
    dual.Dual.demand.(c) <- t.d.(l) *. !traffic
  done;
  Dual.step dual ~alpha

let route_costs t =
  let dual = t.dual in
  let gamma = dual.Dual.gamma in
  (* Per-carrier price d_l * Σ_{i ∈ I_l} γ_i, then summed along routes. *)
  let { start; idx } = t.carrier_domain in
  for c = 0 to Array.length dual.Dual.carriers - 1 do
    let acc = ref 0.0 in
    for k = start.(c) to start.(c + 1) - 1 do
      acc := !acc +. gamma.(idx.(k))
    done;
    t.link_price.(c) <- t.d.(dual.Dual.carriers.(c)) *. !acc
  done;
  let { start; idx } = t.route_carriers in
  for r = 0 to Array.length t.q - 1 do
    let acc = ref 0.0 in
    for k = start.(r) to start.(r + 1) - 1 do
      acc := !acc +. t.link_price.(idx.(k))
    done;
    t.q.(r) <- !acc
  done

let flow_rates t ~x dst =
  let { start; idx } = t.flow_routes in
  for f = 0 to Array.length dst - 1 do
    let acc = ref 0.0 in
    for k = start.(f) to start.(f + 1) - 1 do
      acc := !acc +. x.(idx.(k))
    done;
    dst.(f) <- !acc
  done

let marginals t ~x =
  flow_rates t ~x t.flow_rate;
  Utility.u'_into t.flow_rate t.marginal

let routes_on_link t l =
  let c = t.dual.Dual.carrier_pos.(l) in
  if c < 0 then []
  else
    let { start; idx } = t.carrier_routes in
    List.init (start.(c + 1) - start.(c)) (fun k -> idx.(start.(c) + k))
