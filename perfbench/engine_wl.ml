(* The packet-engine workloads: scenario-churn and loadsweep-tcp.

   The timed pass calls Scenario.run_all / Loadsweep.sweep as the CLI
   does. Their scorecard and FCT accounting are internal, so the traced
   pass replays each operation through public functions up to and
   including its Engine.run calls (Builder.graph + Domain.of_instance
   are what Runner.network composes), and the two passes are compared
   on what both can compute: engine events, queue drops, fault and
   recovery counters, per-flow goodput (scenario), arrivals,
   completions and offered/achieved load (loadsweep). Engine runs are
   profiled with Obs.Prof; set-up cost is measured by the same call at
   zero duration, and the Recorder's cost by a recorder-free twin. The
   zero-duration calls and twins are measurement only and sit in
   "probe" spans, which the harness leaves out of the replay's time. *)

open Perfbench
module J = Obs.Json

let span = Spans.span

let engine_run sp ?(recorder_twin = false) ?trace ?link_events ?loss_events ?ctrl_events
    ~config rng g dom ~flows ~duration =
  let probe f = span sp "probe" (fun () -> f (Rng.copy rng)) in
  let timed f =
    let t0 = Unix.gettimeofday () in
    ignore (f () : Engine.result);
    Unix.gettimeofday () -. t0
  in
  Spans.count sp "sim.setup_s"
    (probe (fun r ->
         timed (fun () ->
             Engine.run ~config ?link_events ?loss_events ?ctrl_events r g dom ~flows
               ~duration:0.0)));
  let twin_s =
    if recorder_twin then
      probe (fun r ->
          timed (fun () ->
              Engine.run ~config ~prof:(Obs.Prof.create ()) ?link_events ?loss_events
                ?ctrl_events r g dom ~flows ~duration))
    else 0.0
  in
  let prof = Obs.Prof.create () in
  let t0 = Unix.gettimeofday () in
  let result =
    span sp "sim.run" (fun () ->
        Engine.run ~config ?trace ~prof ?link_events ?loss_events ?ctrl_events rng g dom
          ~flows ~duration)
  in
  if recorder_twin then
    Spans.count sp "obs.recorder_s" (Unix.gettimeofday () -. t0 -. twin_s);
  Spans.count sp "sim.events" (float_of_int result.Engine.events_processed);
  Spans.count sp "sim.loop_s" result.Engine.perf.Engine.wall_s;
  List.iter
    (fun (e : Obs.Prof.entry) -> Spans.count sp ("sim." ^ e.name ^ "_wall") e.wall_s)
    (Obs.Prof.report prof);
  result

let hybrid_network sp inst =
  let g = span sp "topology" (fun () -> Builder.graph inst Builder.Hybrid) in
  let dom = span sp "interference" (fun () -> Domain.of_instance inst Builder.Hybrid g) in
  { Empower.g; dom }

(* ---- scenario-churn ---- *)

(* A pass plays the catalog once, at spec seeds shifted by
   1000 (bench seed - 1); bench seed 1 is the catalog as shipped. The
   seed redraws the engine streams and the generated churn plans. *)
let scenario_dir = "scenarios"

let load_specs () =
  match Scenario.catalog scenario_dir with
  | Error e -> failwith ("scenario catalog: " ^ e)
  | Ok entries ->
    List.map
      (fun (_, path) ->
        match Scenario.load path with Ok s -> s | Error e -> failwith e)
      entries

let scenario_key (spec : Scenario.spec) = Printf.sprintf "%s@%d" spec.name spec.seed

let scenario_check ~events ~drops ~fault_events ~deaths ~probes ~actions goodputs =
  J.to_string
    (J.Obj
       [
         ("events", J.Int events);
         ("queue_drops", J.Int drops);
         ("fault_events", J.Int fault_events);
         ("route_deaths", J.Int deaths);
         ("probes", J.Int probes);
         ("plan_actions", J.Int actions);
         ("goodput_mbps", J.List (List.map (fun v -> J.Float v) goodputs));
       ])

let scenario_op (sc : Scenario.scorecard) =
  {
    Harness.key = scenario_key sc.spec;
    json = J.to_string (Scenario.to_json sc);
    check =
      scenario_check ~events:sc.events_processed ~drops:sc.queue_drops
        ~fault_events:sc.fault_events ~deaths:sc.route_deaths ~probes:sc.probes
        ~actions:(List.length sc.plan)
        (List.map (fun (f : Scenario.flow_score) -> f.goodput_mbps) sc.flows);
  }

(* Scenario.run up to its two engine runs; see scenario.ml. *)
let scenario_replay sp (spec : Scenario.spec) =
  let inst =
    span sp "topology" (fun () ->
        let rng = Rng.create spec.topology_seed in
        let inst0 =
          match spec.topology with
          | Scenario.Testbed -> Testbed.generate rng
          | Scenario.Residential -> Residential.generate rng
          | Scenario.Enterprise -> Enterprise.generate rng
        in
        (match Device.validate inst0 spec.devices with
        | Ok () -> ()
        | Error e -> invalid_arg e);
        Device.apply inst0 spec.devices)
  in
  let net = hybrid_network sp inst in
  let g = net.Empower.g and dom = net.Empower.dom in
  let flows =
    span sp "routing" (fun () ->
        List.map
          (fun (src, dst) ->
            let rr = Runner.routes_and_rates net Schemes.Empower ~src ~dst in
            if fst rr = [] then invalid_arg "no route";
            Runner.flow_spec ~src ~dst rr)
          spec.flows)
  in
  let master () =
    let m = Rng.create spec.seed in
    (m, Rng.split m)
  in
  let m_churn, plan_rng = master () in
  let m_base, _ = master () in
  let plan, compiled =
    span sp "fault.compile" (fun () ->
        let plan =
          match spec.churn with
          | Scenario.Plan p ->
            (match Fault.validate g p with Ok () -> () | Error e -> invalid_arg e);
            Fault.normalize p
          | Scenario.Generate { intensity; protect_endpoints } ->
            let protect =
              if protect_endpoints then
                List.sort_uniq compare (List.concat_map (fun (s, d) -> [ s; d ]) spec.flows)
              else []
            in
            Fault.normalize
              (Fault.Gen.plan ~intensity ~protect plan_rng g ~duration:spec.duration)
        in
        (plan, Fault.compile g plan))
  in
  let config =
    {
      Engine.default_config with
      Engine.route_reclaim = true;
      recovery = (if spec.recovery then Some Recovery.default else None);
    }
  in
  let domain_of = Domain.domain dom in
  let recorded run =
    let reg = Obs.Metrics.create () in
    let recorder = Obs.Recorder.create ~domain_of reg in
    let result = run (Obs.Recorder.sink recorder) in
    Obs.Recorder.flush recorder ~now:spec.duration;
    (reg, result)
  in
  let run_engine ?link_events ?loss_events ?ctrl_events rng trace =
    engine_run sp ~recorder_twin:true ~trace ?link_events ?loss_events ?ctrl_events
      ~config rng g dom ~flows ~duration:spec.duration
  in
  ignore (recorded (run_engine m_base));
  let reg, result =
    recorded
      (run_engine ~link_events:compiled.Fault.link_events
         ~loss_events:compiled.Fault.loss_events ~ctrl_events:compiled.Fault.ctrl_events
         m_churn)
  in
  let counter name = Obs.Metrics.Counter.value (Obs.Metrics.counter reg name) in
  Spans.count sp "fault.events" (float_of_int (counter "fault.events"));
  Spans.count sp "recovery.route_deaths" (float_of_int (counter "recovery.route_deaths"));
  Spans.count sp "recovery.probes" (float_of_int (counter "recovery.probes"));
  ( scenario_key spec,
    scenario_check ~events:result.Engine.events_processed ~drops:result.Engine.queue_drops
      ~fault_events:(counter "fault.events") ~deaths:(counter "recovery.route_deaths")
      ~probes:(counter "recovery.probes") ~actions:(List.length plan)
      (Array.to_list
         (Array.map
            (fun fr -> float_of_int fr.Engine.received_bytes *. 8e-6 /. spec.duration)
            result.Engine.flows)) )

let scenario_setup ~seed =
  let specs =
    List.map
      (fun (s : Scenario.spec) -> { s with seed = s.seed + (1000 * (seed - 1)) })
      (load_specs ())
  in
  (* The replay has no scorecard of its own to serialize, so it times
     the serialization of the timed pass's scorecards. *)
  let last = ref [] in
  [
    {
      Harness.keys = List.map scenario_key specs;
      run =
        (fun () ->
          last := Scenario.run_all ~jobs:1 specs;
          List.map scenario_op !last);
      traced =
        (fun sp ->
          let checks = List.map (scenario_replay sp) specs in
          span sp "experiments.emit" (fun () ->
              List.iter (fun sc -> ignore (J.to_string (Scenario.to_json sc))) !last);
          checks);
    };
  ]

(* ---- loadsweep-tcp ---- *)

(* Loadsweep.sweep at its defaults (websearch CDF, 4 pairs x 2
   connections, 30 s + 10 s drain, loads 0.1..0.9), [loadsweep_sets]
   sweeps per pass at seeds 16 + bench seed + 1000 j (bench seed 1,
   j = 0 is the CLI default seed 17). The seed draws the pairs, and
   with them the capacity every load is relative to; more than one
   sweep per pass averages that out. *)
let loadsweep_sets = 4
let loads = [ 0.1; 0.3; 0.5; 0.7; 0.9 ]
let ls_pairs = 4
let ls_conns = 2
let ls_duration = 30.0
let ls_drain = 10.0

let ls_key seed load = Printf.sprintf "%d/%.2f" seed load

let ls_check ~arrivals ~completed ~drops ~offered ~achieved =
  J.to_string
    (J.Obj
       [
         ("arrivals", J.Int arrivals);
         ("completed", J.Int completed);
         ("queue_drops", J.Int drops);
         ("offered_load", J.Float offered);
         ("achieved_load", J.Float achieved);
       ])

(* Loadsweep's seed-pinned pair draw, which it does not export. *)
let draw_pairs rng (net : Empower.network) ~pairs =
  let n = Multigraph.n_nodes net.Empower.g in
  let rec go acc k attempts =
    if k = 0 then List.rev acc
    else if attempts > 200 * pairs then invalid_arg "draw_pairs: too few connected pairs"
    else
      let src = Rng.int rng n in
      let dst = Rng.int rng n in
      if src = dst || List.exists (fun (s, d) -> s = src || (s, d) = (src, dst)) acc then
        go acc k (attempts + 1)
      else
        let p = Empower.plan net ~src ~dst in
        if Multipath.routes p.Empower.combination = [] then go acc k (attempts + 1)
        else go ((src, dst) :: acc) (k - 1) (attempts + 1)
  in
  go [] pairs 0

(* Loadsweep.run up to its engine run; see loadsweep.ml. *)
let ls_replay sp ~seed load =
  let inst = span sp "topology" (fun () -> Testbed.generate (Rng.create 4242)) in
  let net = hybrid_network sp inst in
  let master = Rng.create seed in
  let pair_rng = Rng.split master in
  let gen_rng = Rng.split master in
  let pair_list = span sp "routing" (fun () -> draw_pairs pair_rng net ~pairs:ls_pairs) in
  (* Empower.allocate plans the routes, then runs the controller. *)
  let alloc = span sp "control" (fun () -> Empower.allocate net ~flows:pair_list) in
  let capacity = Array.fold_left ( +. ) 0.0 alloc.Empower.flow_rates in
  let arrivals = ref 0 and offered_bytes = ref 0 in
  let flows =
    span sp "traffic.schedule" (fun () ->
        List.concat
          (List.mapi
             (fun i (src, dst) ->
               let routes = Multipath.routes alloc.Empower.plans.(i).Empower.combination in
               let rates =
                 List.map
                   (fun r -> r /. float_of_int ls_conns)
                   (Array.to_list alloc.Empower.route_rates.(i))
               in
               let gen =
                 Loadgen.generate (Rng.split gen_rng) ~cdf:Cdf.websearch ~load
                   ~capacity_mbps:alloc.Empower.flow_rates.(i) ~conns:ls_conns
                   ~duration:ls_duration
               in
               arrivals := !arrivals + gen.Loadgen.arrivals;
               offered_bytes := !offered_bytes + gen.Loadgen.offered_bytes;
               List.init ls_conns (fun c ->
                   Runner.flow_spec
                     ~workload:
                       (Workload.Empirical
                          { files = gen.Loadgen.per_conn.(c); pacing = Workload.Cbr })
                     ~src ~dst (routes, rates)))
             pair_list))
  in
  Spans.count sp "traffic.arrivals" (float_of_int !arrivals);
  let result =
    engine_run sp ~config:Engine.default_config master net.Empower.g net.Empower.dom ~flows
      ~duration:(ls_duration +. ls_drain)
  in
  let completed, delivered =
    Array.fold_left
      (fun (c, d) fr ->
        (c + List.length fr.Engine.completions, d + fr.Engine.received_bytes))
      (0, 0) result.Engine.flows
  in
  Spans.count sp "traffic.completed" (float_of_int completed);
  let share bytes = float_of_int bytes *. 8.0 /. (capacity *. 1e6 *. ls_duration) in
  ( ls_key seed load,
    ls_check ~arrivals:!arrivals ~completed ~drops:result.Engine.queue_drops
      ~offered:(share !offered_bytes) ~achieved:(share delivered) )

let loadsweep_unit x =
  let last = ref None in
  let run () =
    let data = Loadsweep.sweep ~seed:x ~jobs:1 loads in
    last := Some data;
    ignore (J.to_string (Figure_json.loadsweep data));
    List.map
      (fun (pt : Loadsweep.point) ->
        {
          Harness.key = ls_key x pt.load;
          json = J.to_string (Figure_json.loadsweep { data with points = [ pt ] });
          check =
            ls_check ~arrivals:pt.arrivals ~completed:pt.completed ~drops:pt.queue_drops
              ~offered:pt.offered_load ~achieved:pt.achieved_load;
        })
      data.points
  in
  let traced sp =
    let checks = List.map (ls_replay sp ~seed:x) loads in
    (* As for scenarios: the timed pass's figure, serialized again. *)
    span sp "experiments.emit" (fun () ->
        Option.iter (fun d -> ignore (J.to_string (Figure_json.loadsweep d))) !last);
    checks
  in
  { Harness.keys = List.map (ls_key x) loads; run; traced }

let loadsweep_setup ~seed =
  ignore (Cdf.mean Cdf.websearch);
  List.init loadsweep_sets (fun j -> loadsweep_unit (16 + seed + (1000 * j)))
