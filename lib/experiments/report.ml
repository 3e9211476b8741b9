(* Unified run-report renderer: one command turns any artifact the
   harness produces — a JSONL trace, a loadsweep figure, a profile —
   into the same text + JSON health report. See report.mli for the
   SLO definitions. *)

type flow_slo = {
  stats : Obs.Summary.flow_stats;
  lp_bound_mbps : float;
  bound_ratio : float;
}

type trace = {
  summary : Obs.Summary.t;
  slos : flow_slo list;
}

type sweep_bucket = {
  label : string;
  count : int;
  p50 : float;
  p95 : float;
  p99 : float;
}

type sweep_point = {
  load : float;
  offered_load : float;
  achieved_load : float;
  arrivals : int;
  completed : int;
  queue_drops : int;
  buckets : sweep_bucket list;
}

type sweep = {
  seed : int;
  capacity_mbps : float;
  sweep_duration : float;
  points : sweep_point list;
}

type profile = {
  prof_events : int;
  prof_wall_s : float;
  entries : Obs.Prof.entry list;
}

type scen_flow = {
  flow : int;
  src : int;
  dst : int;
  baseline_mbps : float;
  goodput_mbps : float;
  availability : float;
  below_slo_s : float;
  reroutes : int;
  flow_route_deaths : int;
  flow_route_restores : int;
  outage_s : float;
}

type scen_event = {
  op : string;
  at : float;
  clear : float;
  dip_mbps : float;
  recover_s : float;
}

type scenario = {
  scen_name : string;
  scen_seed : int;
  scen_duration : float;
  availability_frac : float;
  min_availability : float;
  min_availability_measured : float;
  slo_met : bool;
  scen_route_deaths : int;
  scen_probes : int;
  scen_queue_drops : int;
  scen_fault_events : int;
  scen_flows : scen_flow list;
  scen_events : scen_event list;
}

type source =
  | Trace of trace
  | Sweep of sweep
  | Profile of profile
  | Scenario of scenario

type t = { path : string; source : source }

(* --- SLO computation --- *)

(* The controller's final rate vector is the LP allocation the flow
   converged to; its sum is the goodput the optimization promised.
   0 when the trace carried no rate update (then no bound is known). *)
let slo_of_stats (st : Obs.Summary.flow_stats) =
  let bound = Array.fold_left ( +. ) 0.0 st.Obs.Summary.final_rates in
  {
    stats = st;
    lp_bound_mbps = bound;
    bound_ratio =
      (if bound > 0.0 then st.Obs.Summary.goodput_mbps /. bound else Float.nan);
  }

let trace_of_summary summary =
  { summary; slos = List.map slo_of_stats summary.Obs.Summary.flows }

let bucket_p99 pt label =
  List.find_map
    (fun b -> if b.label = label && b.count > 0 then Some b.p99 else None)
    pt.buckets

(* p99 FCT of the all-sizes bucket must not improve as load grows —
   the sweep's built-in sanity SLO (same check the loadsweep tests
   pin, minus the tolerance: here a violation is only flagged). *)
let sweep_p99_monotone s =
  let rec go prev = function
    | [] -> true
    | pt :: rest -> (
      match bucket_p99 pt "all" with
      | None -> go prev rest
      | Some p99 -> (
        match prev with
        | Some p when p99 < p -> false
        | _ -> go (Some p99) rest))
  in
  go None s.points

(* --- parsing --- *)

let ( let* ) r f = Result.bind r f

let field name conv j =
  match Option.bind (Obs.Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or mistyped field %S" name)

let list_field name j =
  match Obs.Json.member name j with
  | Some (Obs.Json.List l) -> Ok l
  | _ -> Error (Printf.sprintf "missing or mistyped field %S" name)

let map_result f l =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest ->
      let* y = f x in
      go (y :: acc) rest
  in
  go [] l

let sweep_of_json j =
  let fl = Obs.Json.to_float_opt and it = Obs.Json.to_int_opt in
  let bucket b =
    let* label = field "label" Obs.Json.to_string_opt b in
    let* count = field "count" it b in
    let* p50 = field "p50" fl b in
    let* p95 = field "p95" fl b in
    let* p99 = field "p99" fl b in
    Ok { label; count; p50; p95; p99 }
  in
  let point p =
    let* load = field "load" fl p in
    let* offered_load = field "offered_load" fl p in
    let* achieved_load = field "achieved_load" fl p in
    let* arrivals = field "arrivals" it p in
    let* completed = field "completed" it p in
    let* queue_drops = field "queue_drops" it p in
    let* bs = list_field "buckets" p in
    let* buckets = map_result bucket bs in
    Ok { load; offered_load; achieved_load; arrivals; completed; queue_drops; buckets }
  in
  let* seed = field "seed" it j in
  let* capacity_mbps = field "capacity_mbps" fl j in
  let* sweep_duration = field "duration" fl j in
  let* pts = list_field "points" j in
  let* points = map_result point pts in
  Ok { seed; capacity_mbps; sweep_duration; points }

let profile_of_json j =
  let fl = Obs.Json.to_float_opt and it = Obs.Json.to_int_opt in
  let entry e =
    let* name = field "name" Obs.Json.to_string_opt e in
    let* events = field "events" it e in
    let* wall_s = field "wall_s" fl e in
    let* ns_per_event = field "ns_per_event" fl e in
    let* share_pct = field "share_pct" fl e in
    let* minor_words = field "minor_words" fl e in
    let* words_per_event = field "words_per_event" fl e in
    Ok
      {
        Obs.Prof.name;
        events;
        wall_s;
        ns_per_event;
        share_pct;
        minor_words;
        words_per_event;
      }
  in
  let* prof_events = field "events" it j in
  let* prof_wall_s = field "wall_s" fl j in
  let* es = list_field "categories" j in
  let* entries = map_result entry es in
  Ok { prof_events; prof_wall_s; entries }

let scenario_of_json j =
  let fl = Obs.Json.to_float_opt and it = Obs.Json.to_int_opt in
  let flow fj =
    let* flow = field "flow" it fj in
    let* src = field "src" it fj in
    let* dst = field "dst" it fj in
    let* baseline_mbps = field "baseline_mbps" fl fj in
    let* goodput_mbps = field "goodput_mbps" fl fj in
    let* availability = field "availability" fl fj in
    let* below_slo_s = field "below_slo_s" fl fj in
    let* reroutes = field "reroutes" it fj in
    let* flow_route_deaths = field "route_deaths" it fj in
    let* flow_route_restores = field "route_restores" it fj in
    let* outage_s = field "outage_s" fl fj in
    Ok
      {
        flow; src; dst; baseline_mbps; goodput_mbps; availability; below_slo_s;
        reroutes; flow_route_deaths; flow_route_restores; outage_s;
      }
  in
  let event ej =
    let* op = field "op" Obs.Json.to_string_opt ej in
    let* at = field "at" fl ej in
    let* clear = field "clear" fl ej in
    let* dip_mbps = field "dip_mbps" fl ej in
    let* recover_s = field "recover_s" fl ej in
    Ok { op; at; clear; dip_mbps; recover_s }
  in
  let* scen_name = field "name" Obs.Json.to_string_opt j in
  let* scen_seed = field "seed" it j in
  let* scen_duration = field "duration" fl j in
  let* slo =
    match Obs.Json.member "slo" j with
    | Some (Obs.Json.Obj _ as s) -> Ok s
    | _ -> Error "missing or mistyped field \"slo\""
  in
  let* availability_frac = field "availability_frac" fl slo in
  let* min_availability = field "min_availability" fl slo in
  let* min_availability_measured = field "min_availability" fl j in
  let* slo_met = field "slo_met" Obs.Json.to_bool_opt j in
  let* scen_route_deaths = field "route_deaths" it j in
  let* scen_probes = field "probes" it j in
  let* scen_queue_drops = field "queue_drops" it j in
  let* scen_fault_events = field "fault_events" it j in
  let* fs = list_field "flows" j in
  let* scen_flows = map_result flow fs in
  let* es = list_field "events" j in
  let* scen_events = map_result event es in
  Ok
    {
      scen_name; scen_seed; scen_duration; availability_frac; min_availability;
      min_availability_measured; slo_met; scen_route_deaths; scen_probes;
      scen_queue_drops; scen_fault_events; scen_flows; scen_events;
    }

let read_all path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Ok (really_input_string ic (in_channel_length ic)))
  with Sys_error msg -> Error msg

let first_line s =
  match String.index_opt s '\n' with
  | Some i -> String.sub s 0 i
  | None -> s

let of_trace_file ?duration path =
  let* events = Obs.Summary.read_file path in
  let* duration =
    match duration with
    | Some d when d > 0.0 -> Ok d
    | Some _ -> Error "report: duration must be positive"
    | None -> (
      (* Without an explicit horizon, report over the trace's own
         span (last event time). *)
      match events with
      | [] -> Error (path ^ ": empty trace (pass an explicit duration)")
      | evs ->
        Ok (List.fold_left (fun a e -> Float.max a (Obs.Trace.time e)) 0.0 evs))
  in
  if duration <= 0.0 then Error (path ^ ": trace spans zero time")
  else
    Ok
      {
        path;
        source = Trace (trace_of_summary (Obs.Summary.of_events ~duration events));
      }

let of_file ?duration path =
  let* content = read_all path in
  let line = String.trim (first_line content) in
  if line = "" then Error (path ^ ": empty file")
  else
    let* j =
      Result.map_error (fun e -> path ^ ": " ^ e) (Obs.Json.parse line)
    in
    match Obs.Json.member "ev" j with
    | Some _ -> of_trace_file ?duration path
    | None -> (
      (* Single-document figure: the whole file is one JSON value. *)
      let* j =
        Result.map_error (fun e -> path ^ ": " ^ e) (Obs.Json.parse content)
      in
      match Option.bind (Obs.Json.member "figure" j) Obs.Json.to_string_opt with
      | Some "loadsweep" ->
        let* s = Result.map_error (fun e -> path ^ ": " ^ e) (sweep_of_json j) in
        Ok { path; source = Sweep s }
      | Some "profile" ->
        let* p =
          Result.map_error (fun e -> path ^ ": " ^ e) (profile_of_json j)
        in
        Ok { path; source = Profile p }
      | Some "scenario" ->
        let* sc =
          Result.map_error (fun e -> path ^ ": " ^ e) (scenario_of_json j)
        in
        Ok { path; source = Scenario sc }
      | Some other ->
        Error (Printf.sprintf "%s: unsupported figure %S" path other)
      | None ->
        Error
          (path
         ^ ": not a trace (no \"ev\"), nor a figure document (no \"figure\")"))

(* --- rendering --- *)

let i n = Obs.Json.Int n
let f x = Obs.Json.Float x
let s x = Obs.Json.String x

let trace_json (tr : trace) =
  let sm = tr.summary in
  let flow (slo : flow_slo) =
    let st = slo.stats in
    Obs.Json.Obj
      [
        ("flow", i st.Obs.Summary.flow);
        ("delivered_frames", i st.Obs.Summary.delivered_frames);
        ("delivered_bytes", i st.Obs.Summary.delivered_bytes);
        ("goodput_mbps", f st.Obs.Summary.goodput_mbps);
        ("lp_bound_mbps", f slo.lp_bound_mbps);
        ("bound_ratio", f slo.bound_ratio);
        ("p50_delay", f st.Obs.Summary.p50_delay);
        ("p95_delay", f st.Obs.Summary.p95_delay);
        ("p99_delay", f st.Obs.Summary.p99_delay);
        ("max_delay", f st.Obs.Summary.max_delay);
      ]
  in
  let r = sm.Obs.Summary.recovery in
  [
    ("duration", f sm.Obs.Summary.duration);
    ("events", i sm.Obs.Summary.events);
    ("flows", Obs.Json.List (List.map flow tr.slos));
    ( "drops",
      Obs.Json.Obj
        (List.map
           (fun (reason, n) -> (Obs.Trace.drop_reason_name reason, i n))
           sm.Obs.Summary.drops) );
    ("collisions", i sm.Obs.Summary.collisions);
    ("grants", i sm.Obs.Summary.grants);
    ( "recovery",
      Obs.Json.Obj
        [
          ("route_deaths", i r.Obs.Summary.route_deaths);
          ("route_restores", i r.Obs.Summary.route_restores);
          ("route_probes", i r.Obs.Summary.route_probes);
          ("price_resets", i r.Obs.Summary.price_resets);
          ("max_detect_s", f r.Obs.Summary.max_detect_s);
          ("max_down_s", f r.Obs.Summary.max_down_s);
        ] );
  ]

let sweep_json (sw : sweep) =
  let bucket b =
    Obs.Json.Obj
      [
        ("label", s b.label);
        ("count", i b.count);
        ("p50", f b.p50);
        ("p95", f b.p95);
        ("p99", f b.p99);
      ]
  in
  let point pt =
    Obs.Json.Obj
      [
        ("load", f pt.load);
        ("offered_load", f pt.offered_load);
        ("achieved_load", f pt.achieved_load);
        ("arrivals", i pt.arrivals);
        ("completed", i pt.completed);
        ("queue_drops", i pt.queue_drops);
        ("buckets", Obs.Json.List (List.map bucket pt.buckets));
      ]
  in
  [
    ("seed", i sw.seed);
    ("capacity_mbps", f sw.capacity_mbps);
    ("duration", f sw.sweep_duration);
    ("p99_monotone", Obs.Json.Bool (sweep_p99_monotone sw));
    ("points", Obs.Json.List (List.map point sw.points));
  ]

let profile_json (p : profile) =
  let entry (e : Obs.Prof.entry) =
    Obs.Json.Obj
      [
        ("name", s e.name);
        ("events", i e.events);
        ("wall_s", f e.wall_s);
        ("ns_per_event", f e.ns_per_event);
        ("share_pct", f e.share_pct);
        ("minor_words", f e.minor_words);
        ("words_per_event", f e.words_per_event);
      ]
  in
  [
    ("events", i p.prof_events);
    ("wall_s", f p.prof_wall_s);
    ("hotspots", Obs.Json.List (List.map entry p.entries));
  ]

let scenario_json (sc : scenario) =
  let flow fw =
    Obs.Json.Obj
      [
        ("flow", i fw.flow);
        ("src", i fw.src);
        ("dst", i fw.dst);
        ("baseline_mbps", f fw.baseline_mbps);
        ("goodput_mbps", f fw.goodput_mbps);
        ("availability", f fw.availability);
        ("below_slo_s", f fw.below_slo_s);
        ("reroutes", i fw.reroutes);
        ("route_deaths", i fw.flow_route_deaths);
        ("route_restores", i fw.flow_route_restores);
        ("outage_s", f fw.outage_s);
      ]
  in
  let event e =
    Obs.Json.Obj
      [
        ("op", s e.op);
        ("at", f e.at);
        ("clear", f e.clear);
        ("dip_mbps", f e.dip_mbps);
        ("recover_s", f e.recover_s);
      ]
  in
  [
    ("name", s sc.scen_name);
    ("seed", i sc.scen_seed);
    ("duration", f sc.scen_duration);
    ( "slo",
      Obs.Json.Obj
        [
          ("availability_frac", f sc.availability_frac);
          ("min_availability", f sc.min_availability);
        ] );
    ("min_availability", f sc.min_availability_measured);
    ("slo_met", Obs.Json.Bool sc.slo_met);
    ("route_deaths", i sc.scen_route_deaths);
    ("probes", i sc.scen_probes);
    ("queue_drops", i sc.scen_queue_drops);
    ("fault_events", i sc.scen_fault_events);
    ("flows", Obs.Json.List (List.map flow sc.scen_flows));
    ("events", Obs.Json.List (List.map event sc.scen_events));
  ]

let to_json t =
  let source_name, payload =
    match t.source with
    | Trace tr -> ("trace", trace_json tr)
    | Sweep sw -> ("loadsweep", sweep_json sw)
    | Profile p -> ("profile", profile_json p)
    | Scenario sc -> ("scenario", scenario_json sc)
  in
  Obs.Json.Obj
    (("figure", s "report") :: ("source", s source_name) :: ("path", s t.path)
    :: payload)

let ms x = x *. 1e3

let print_trace out path (tr : trace) =
  let pr fmt = Printf.fprintf out fmt in
  let sm = tr.summary in
  pr "=== run report: %s (trace, %d events, %.3f s) ===\n" path
    sm.Obs.Summary.events sm.Obs.Summary.duration;
  pr "SLOs:\n";
  List.iter
    (fun (slo : flow_slo) ->
      let st = slo.stats in
      pr "  flow %d: goodput %.3f Mbit/s" st.Obs.Summary.flow
        st.Obs.Summary.goodput_mbps;
      if slo.lp_bound_mbps > 0.0 then
        pr " vs LP bound %.3f (%.1f%%)" slo.lp_bound_mbps
          (100.0 *. slo.bound_ratio);
      if st.Obs.Summary.delivered_frames > 0 then
        pr ", delay p50/p95/p99 %.2f/%.2f/%.2f ms"
          (ms st.Obs.Summary.p50_delay)
          (ms st.Obs.Summary.p95_delay)
          (ms st.Obs.Summary.p99_delay);
      pr "\n")
    tr.slos;
  let r = sm.Obs.Summary.recovery in
  if r.Obs.Summary.route_deaths > 0 || r.Obs.Summary.route_probes > 0 then
    pr
      "severance: %d route deaths, %d restores, %d probes, %d price resets, \
       worst detect %.3f s, worst outage %.3f s\n"
      r.Obs.Summary.route_deaths r.Obs.Summary.route_restores
      r.Obs.Summary.route_probes r.Obs.Summary.price_resets
      r.Obs.Summary.max_detect_s r.Obs.Summary.max_down_s;
  pr "counters: collisions %d, grants %d" sm.Obs.Summary.collisions
    sm.Obs.Summary.grants;
  List.iter
    (fun (reason, n) -> pr ", %s %d" (Obs.Trace.drop_reason_name reason) n)
    sm.Obs.Summary.drops;
  pr "\n"

let print_sweep out path (sw : sweep) =
  let pr fmt = Printf.fprintf out fmt in
  pr "=== run report: %s (loadsweep, seed %d, %.0f Mbit/s capacity) ===\n" path
    sw.seed sw.capacity_mbps;
  List.iter
    (fun pt ->
      pr
        "load %.2f: offered %.3f, achieved %.3f, completed %d/%d, queue drops \
         %d\n"
        pt.load pt.offered_load pt.achieved_load pt.completed pt.arrivals
        pt.queue_drops;
      pr "  p99 FCT:";
      List.iter
        (fun b ->
          if b.count > 0 then pr " %s %.1f ms (n=%d)" b.label (ms b.p99) b.count)
        pt.buckets;
      pr "\n")
    sw.points;
  pr "p99(all) monotone nondecreasing in load: %s\n"
    (if sweep_p99_monotone sw then "yes" else "NO — inspect the sweep")

let print_profile out path (p : profile) =
  let pr fmt = Printf.fprintf out fmt in
  pr "=== run report: %s (profile, %d events, %.4f s attributed) ===\n" path
    p.prof_events p.prof_wall_s;
  pr "%-12s %10s %10s %9s %8s %12s %9s\n" "subsystem" "events" "wall_s"
    "ns/event" "share" "minor_words" "words/ev";
  List.iter
    (fun (e : Obs.Prof.entry) ->
      pr "%-12s %10d %10.4f %9.0f %7.1f%% %12.0f %9.1f\n" e.name e.events
        e.wall_s e.ns_per_event e.share_pct e.minor_words e.words_per_event)
    p.entries

let print_scenario out path (sc : scenario) =
  let pr fmt = Printf.fprintf out fmt in
  pr "=== run report: %s (scenario %S, seed %d, %.1f s) ===\n" path sc.scen_name
    sc.scen_seed sc.scen_duration;
  pr "SLO: min availability %.1f%% vs threshold %.1f%% (bins >= %.0f%% of \
      fault-free baseline) -> %s\n"
    (100.0 *. sc.min_availability_measured)
    (100.0 *. sc.min_availability)
    (100.0 *. sc.availability_frac)
    (if sc.slo_met then "PASS" else "FAIL");
  List.iter
    (fun fw ->
      pr
        "  flow %d (%d -> %d): availability %.1f%% (%.0f s below SLO), \
         goodput %.3f vs baseline %.3f Mbit/s, %d deaths / %d restores, \
         outage %.1f s, %d reroutes\n"
        fw.flow fw.src fw.dst
        (100.0 *. fw.availability)
        fw.below_slo_s fw.goodput_mbps fw.baseline_mbps fw.flow_route_deaths
        fw.flow_route_restores fw.outage_s fw.reroutes)
    sc.scen_flows;
  if sc.scen_events <> [] then begin
    pr "churn events:\n";
    List.iter
      (fun e ->
        pr "  %-16s at %6.2f  clear %6.2f  dip %8.3f Mbit/s  recover %s\n" e.op
          e.at e.clear e.dip_mbps
          (if e.recover_s < 0.0 then "never"
           else Printf.sprintf "%.2f s" e.recover_s))
      sc.scen_events
  end;
  pr "counters: %d route deaths, %d probes, %d queue drops, %d fault events\n"
    sc.scen_route_deaths sc.scen_probes sc.scen_queue_drops sc.scen_fault_events

let print ?(out = stdout) t =
  match t.source with
  | Trace tr -> print_trace out t.path tr
  | Sweep sw -> print_sweep out t.path sw
  | Profile p -> print_profile out t.path p
  | Scenario sc -> print_scenario out t.path sc
