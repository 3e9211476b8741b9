(** Unified run-report: [empower_eval report <artifact>] renders any
    artifact the harness produces into one text + JSON health report.

    Three artifact shapes are auto-detected from the file itself:

    - a {b JSONL trace} (first line carries an ["ev"] tag — the
      output of [empower_eval trace -o] or a flight-recorder dump):
      replayed strictly through {!Obs.Summary}; the report carries the
      SLOs — per-flow goodput against the LP bound (the sum of the
      flow's last traced controller rate vector), exact p50/p95/p99
      delivery delay, severance detect/outage times — plus
      drop/collision/grant counters;
    - a {b loadsweep figure} ([{"figure":"loadsweep",...}] from
      [empower_eval loadsweep --json]): per-load achieved-vs-offered
      load, completion and drop counts, p99 FCT per size bucket, and
      a p99-monotone-in-load sanity flag;
    - a {b profile} ([{"figure":"profile",...}] from
      [empower_eval profile --json]): the subsystem hotspot table;
    - a {b scenario scorecard} ([{"figure":"scenario",...}] from
      [empower_eval scenario --json]): the degradation scorecard —
      per-flow availability against the fault-free baseline, time
      below SLO, per-churn-event dip and recovery, and the
      recovery-subsystem counters, with the scenario's own SLO
      verdict.

    Accuracy: a trace report inherits the trace's own accuracy — full
    traces replay the engine's accounting exactly (see
    {!Tracing.cross_check}); sampled traces carry the
    {!Obs.Trace.sampled} contract (counts scale by the period; p99
    within 10% relative with >= 1000 retained deliveries). *)

type flow_slo = {
  stats : Obs.Summary.flow_stats;
  lp_bound_mbps : float;
      (** sum of the flow's final traced rate vector; 0 when the
          trace carried no rate update *)
  bound_ratio : float;  (** goodput / bound; [nan] when no bound *)
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
  baseline_mbps : float;  (** mean binned goodput of the fault-free twin run *)
  goodput_mbps : float;  (** mean binned goodput under churn *)
  availability : float;
      (** fraction of 1 s bins at or above [availability_frac] of baseline *)
  below_slo_s : float;
  reroutes : int;
  flow_route_deaths : int;
  flow_route_restores : int;
  outage_s : float;  (** total time any of the flow's routes spent dead *)
}

type scen_event = {
  op : string;
  at : float;
  clear : float;
  dip_mbps : float;  (** worst per-flow 1 s goodput bin inside the event window *)
  recover_s : float;
      (** time from [clear] until every flow is back at 90% of baseline;
          negative means never within the run *)
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

val of_file : ?duration:float -> string -> (t, string) result
(** Load and classify [path]. [duration] overrides a trace's horizon
    (default: the last event's timestamp); it is required to
    reproduce the exact goodput of a run whose trace ends before the
    configured duration, and ignored for figure documents. [Error]
    carries the file/parse/validation message, including the strict
    line-level errors of {!Obs.Summary.read_file}. *)

val sweep_p99_monotone : sweep -> bool
(** [true] iff the all-sizes bucket's p99 FCT is nondecreasing in
    load across the sweep's points (buckets with no samples skip). *)

val to_json : t -> Obs.Json.t
(** The ["report"] figure: [source] is ["trace"], ["loadsweep"],
    ["profile"] or ["scenario"], payload fields follow the shapes
    above. *)

val print : ?out:out_channel -> t -> unit
