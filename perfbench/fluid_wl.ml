(* The fluid-pipeline workloads: fig4-fluid and fig7-optimum.

   The timed pass calls Fig4.run / Fig7.run exactly as the CLI does
   (one process, jobs 1). The traced pass replays each replication
   through the layers' public functions the way Schemes.evaluate and
   Fig7.run compose them, with a span around every layer call, and
   returns the same per-operation JSON so the harness can require the
   two passes to agree byte for byte. *)

open Perfbench
module J = Obs.Json

let span = Spans.span

(* ---- Schemes.evaluate, layer by layer (default options: no
   estimation noise, so the estimated graph is the true graph). ---- *)

let per_flow_totals flow_routes per_route =
  let result = Array.make (List.length flow_routes) 0.0 in
  let rest = ref per_route in
  List.iteri
    (fun f ps ->
      List.iter
        (fun _ ->
          match !rest with
          | v :: tl ->
            result.(f) <- result.(f) +. v;
            rest := tl
          | [] -> invalid_arg "per_flow_totals")
        ps)
    flow_routes;
  result

let fluid sp g dom offered =
  span sp "baselines.fluid" (fun () -> Fluid.goodput g dom ~offered)

let evaluate sp inst scheme ~flows =
  let opts = Schemes.default_options in
  let scen = Schemes.scenario scheme in
  let g = span sp "topology" (fun () -> Builder.graph inst scen) in
  let dom = span sp "interference" (fun () -> Domain.of_instance inst scen g) in
  let flow_routes, standalone =
    span sp "routing" (fun () ->
        let fr =
          List.map (fun (s, d) -> Schemes.routes_for ~opts scheme g dom ~src:s ~dst:d) flows
        in
        (fr, List.map (List.map (fun p -> Update.path_rate g dom p)) fr))
  in
  let all_routes = List.concat flow_routes in
  if all_routes = [] then Array.make (List.length flows) 0.0
  else if not (Schemes.uses_cc scheme) then
    per_flow_totals flow_routes
      (fluid sp g dom (List.combine all_routes (List.concat standalone)))
  else begin
    let res =
      span sp "control" (fun () ->
          let d = Array.init (Multigraph.num_links g) (Multigraph.d g) in
          let problem = Problem.make ~delta:opts.Schemes.delta ~d g dom ~flows:flow_routes in
          Multi_cc.solve
            ~x_init:(Array.of_list (List.concat standalone))
            ~slots:opts.Schemes.cc_slots ~stop_tol:0.05 problem)
    in
    Spans.count sp "control.solves" 1.0;
    Spans.count sp "control.slots" (float_of_int res.Cc_result.slots);
    per_flow_totals flow_routes
      (fluid sp g dom (List.mapi (fun r p -> (p, res.Cc_result.rates.(r))) all_routes))
  end

(* ---- fig4-fluid ---- *)

(* A pass regenerates the figure (both topologies, the CLI's 100
   replications each) at [fig4_sets] seeds: bench seed + 1000 j, so
   bench seed 1, set 0 is the CLI default. One enterprise replication
   can cost ten typical ones; several figures per pass damp how much a
   seed's draw of them moves wall_s. *)
let fig4_sets = 3
let topologies = [ Common.Residential; Common.Enterprise ]
let fig4_runs = 100

let fig4_op ~seed topo i samples =
  let key = Printf.sprintf "%d/%s/%d" seed (Common.topology_name topo) i in
  let json =
    J.to_string
      (J.Obj
         [
           ("figure", J.String "fig4");
           ("topology", J.String (Common.topology_name topo));
           ("replication", J.Int i);
           ("samples", J.Obj (List.map (fun (s, v) -> (Schemes.name s, J.Float v)) samples));
         ])
  in
  (key, json)

let fig4_unit ~seed topo =
  let keys = List.init fig4_runs (fun i -> fst (fig4_op ~seed topo i [])) in
  let run () =
    let data = Fig4.run ~runs:fig4_runs ~seed ~jobs:1 topo in
    (* The figure document the CLI prints is part of the timed work. *)
    ignore (J.to_string (Figure_json.fig4 data));
    List.init fig4_runs (fun i ->
        let key, json =
          fig4_op ~seed topo i (List.map (fun (s, xs) -> (s, List.nth xs i)) data.Fig4.samples)
        in
        { Harness.key; json; check = json })
  in
  let traced sp =
    let rngs = Common.split_rngs (Rng.create seed) fig4_runs in
    let per_run =
      List.map
        (fun rng ->
          let inst, flow =
            span sp "topology" (fun () ->
                let inst = Common.generate topo rng in
                (inst, Common.random_flow rng inst))
          in
          List.map (fun s -> (s, (evaluate sp inst s ~flows:[ flow ]).(0))) Fig4.schemes)
        rngs
    in
    span sp "experiments.emit" (fun () ->
        let data =
          {
            Fig4.topology = topo;
            runs = fig4_runs;
            samples =
              List.map (fun s -> (s, List.map (List.assoc s) per_run)) Fig4.schemes;
          }
        in
        ignore (J.to_string (Figure_json.fig4 data));
        List.mapi (fun i samples -> fig4_op ~seed topo i samples) per_run)
  in
  { Harness.keys; run; traced }

let fig4_setup ~seed =
  List.concat
    (List.init fig4_sets (fun j -> List.map (fig4_unit ~seed:(seed + (1000 * j))) topologies))

(* ---- fig7-optimum ---- *)

(* Fig7.run's scheme columns, in its order (None = conservative opt). *)
let fig7_schemes =
  [
    ("conservative opt", None);
    ("EMPoWER", Some Schemes.Empower);
    ("MP-2bp", Some Schemes.Mp_2bp);
    ("MP-w/o-CC", Some Schemes.Mp_wo_cc);
    ("SP", Some Schemes.Sp);
  ]

let utility rates =
  Array.fold_left (fun acc x -> acc +. log (1.0 +. Float.max 0.0 x)) 0.0 rates

(* A replication is one [Fig7.run ~runs:1 ~seed:x]: the first split of
   [Rng.create x] draws the instance and the three flows. *)
let fig7_draw x =
  let rng = Rng.split (Rng.create x) in
  let inst = Common.generate Common.Residential rng in
  let flows = Common.random_flows rng inst ~n:3 in
  (inst, flows, Builder.graph inst Builder.Hybrid)

(* Residential replications cost 0.02 s to 4.5 s: the Frank-Wolfe
   optimum either settles within a few iterations or runs up to its 200
   LP solves, whose cost grows with the LP's size. A pass affords only
   [fig7_ops] replications, so it keeps those of the kind that
   dominates the figure's time -- not settled after [probe_iters]
   iterations (the exact-region optimum after [probe_iters] and
   [probe_iters + 1] iterations still differ), with an exact region of
   [min_vars]..[max_vars] LP variables, the generator's most common
   band -- and its cost does not swing with how many cheap or outsized
   instances a seed happens to draw. Both tests are properties of the
   input and of the solver's output, not of how fast a build runs. *)
let fig7_ops = 6
let probe_iters = 40
let min_vars = 288
let max_vars = 312
let max_candidates = 400

let fig7_selected x =
  let inst, flows, g = fig7_draw x in
  let dom = Domain.of_instance inst Builder.Hybrid g in
  let vars = Rate_region.n_vars (Rate_region.build Rate_region.Exact g dom ~flows) in
  vars >= min_vars && vars <= max_vars
  &&
  let at k = Opt_solver.max_utility ~iterations:k Rate_region.Exact g dom ~flows in
  at probe_iters <> at (probe_iters + 1)

let fig7_select ~seed =
  let rec go acc j =
    if List.length acc = fig7_ops then List.rev acc
    else if j >= max_candidates then
      failwith "fig7-optimum: too few replications of the timed kind"
    else
      let x = (seed * 1000) + j in
      go (if fig7_selected x then x :: acc else acc) (j + 1)
  in
  go [] 0

let fig7_json data = J.to_string (Figure_json.fig7 data)

let lp_region sp model g dom flows =
  span sp "lp.region" (fun () ->
      let r = Rate_region.build model g dom ~flows in
      Spans.count sp "lp.vars" (float_of_int (Rate_region.n_vars r));
      Spans.count sp "lp.rows" (float_of_int (List.length (Rate_region.rows r))))

let fig7_unit x =
  let key = string_of_int x in
  let run () =
    let json = fig7_json (Fig7.run ~runs:1 ~seed:x ~jobs:1 Common.Residential) in
    [ { Harness.key; json; check = json } ]
  in
  let traced sp =
    let inst, flows, g = span sp "topology" (fun () -> fig7_draw x) in
    let dom =
      span sp "interference" (fun () -> Domain.of_instance inst Builder.Hybrid g)
    in
    lp_region sp Rate_region.Exact g dom flows;
    let u_opt =
      utility
        (span sp "lp.exact" (fun () ->
             Opt_solver.max_utility Rate_region.Exact g dom ~flows))
    in
    let column =
      if u_opt <= 0.1 then fun _ -> []
      else
        let values =
          List.map
            (fun (_, scheme) ->
              match scheme with
              | None ->
                lp_region sp Rate_region.Conservative g dom flows;
                utility
                  (span sp "lp.conservative" (fun () ->
                       Opt_solver.max_utility Rate_region.Conservative g dom ~flows))
                /. u_opt
              | Some s -> utility (evaluate sp inst s ~flows) /. u_opt)
            fig7_schemes
        in
        fun i -> [ List.nth values i ]
    in
    let data =
      {
        Fig7.topology = Common.Residential;
        runs = 1;
        ratios = List.mapi (fun i (nm, _) -> (nm, column i)) fig7_schemes;
      }
    in
    [ (key, span sp "experiments.emit" (fun () -> fig7_json data)) ]
  in
  { Harness.keys = [ key ]; run; traced }

let fig7_setup ~seed = List.map fig7_unit (fig7_select ~seed)
