(* Measurement loop and report for one workload run.

   Tracing off (--trace 0): the workload's set-up is repeated and its
   median reported as setup_s; then the fixed work (every unit's timed
   pass) runs once, and again while another pass still fits in
   --seconds. wall_s is the median pass time, scaled to a reference
   host speed by Calib; alloc_mwords is the median pass's allocation.

   Tracing on (--trace 1): one timed pass with an Exec.Progress
   reporter, then the traced replay inside a root "replay" span, then
   the per-layer metrics.

   An operation fails when its unit raises, when its output is not
   well-formed JSON free of non-finite numbers, when it differs between
   passes, when it differs from the pinned digest at the default seed,
   or (traced run) when the replay disagrees with the timed pass. *)

open Perfbench

type op = {
  key : string;
  json : string;  (** the operation's output document (digest-pinned) *)
  check : string;  (** what the traced replay must reproduce *)
}

type unit_ = {
  keys : string list;
  run : unit -> op list;
  traced : Spans.t -> (string * string) list;
}

type workload = {
  name : string;
  setup : seed:int -> unit_ list;
}

let default_seed = 1
let reference_path = "perfbench/reference.txt"
let now = Unix.gettimeofday

let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let read_file path = In_channel.with_open_bin path In_channel.input_all

let load_reference () =
  match Digests.parse_reference (read_file reference_path) with
  | Ok r -> r
  | Error e -> failwith (reference_path ^ ": " ^ e)

(* ---- failure bookkeeping ---- *)

module S = Set.Make (String)

(* Run every unit's timed pass; a raising unit fails all its keys. *)
let timed_pass units =
  List.fold_left
    (fun (ops, failed) u ->
      match u.run () with
      | xs -> (ops @ xs, failed)
      | exception e ->
        Printf.eprintf "operation failed: %s\n%!" (Printexc.to_string e);
        (ops, List.fold_left (fun s k -> S.add k s) failed u.keys))
    ([], S.empty) units

(* At every seed each output must re-parse strictly and hold no null,
   which is how Obs.Json renders a NaN or an infinity. *)
let rec has_null = function
  | Obs.Json.Null -> true
  | Obs.Json.List xs -> List.exists has_null xs
  | Obs.Json.Obj kvs -> List.exists (fun (_, v) -> has_null v) kvs
  | Obs.Json.Bool _ | Obs.Json.Int _ | Obs.Json.Float _ | Obs.Json.String _ -> false

let malformed ops =
  S.of_list
    (List.filter_map
       (fun o ->
         match Obs.Json.parse o.json with
         | Ok j when not (has_null j) -> None
         | Ok _ | Error _ -> Some o.key)
       ops)

let digest_failures ~workload ~seed ops =
  if seed <> default_seed then S.empty
  else
    let reference = load_reference () in
    S.of_list (Digests.mismatches reference ~workload (List.map (fun o -> (o.key, o.json)) ops))

(* Keys whose output differs between two passes (or is missing from
   one of them). *)
let disagreements keys a b =
  S.of_list
    (List.filter
       (fun k ->
         match (List.assoc_opt k a, List.assoc_opt k b) with
         | Some x, Some y -> x <> y
         | _ -> true)
       keys)

(* ---- output ---- *)

type metric = { mname : string; unit_ : string; value : float }

let result_line ~correct ~attempted ~failed metrics =
  List.iter
    (fun m ->
      if not (Names.valid_metric m.mname && Names.valid_unit m.unit_) then
        failwith ("invalid metric name or unit: " ^ m.mname ^ " " ^ m.unit_))
    metrics;
  let json =
    Obs.Json.Obj
      [
        ("correct", Obs.Json.Bool correct);
        ("attempted", Obs.Json.Int attempted);
        ("failed", Obs.Json.Int failed);
        ( "metrics",
          Obs.Json.Obj
            (List.map
               (fun m ->
                 ( m.mname,
                   Obs.Json.Obj
                     [ ("value", Obs.Json.Float m.value); ("unit", Obs.Json.String m.unit_) ] ))
               metrics) );
      ]
  in
  print_endline (Obs.Json.to_string json)

let print_metric workload m =
  Printf.printf "%-16s %-28s %14.6g %s\n" workload m.mname m.value m.unit_

(* [printed] metrics are shown but left out of the JSON result. *)
let report ?(printed = []) ~workload ~keys ~failed metrics =
  let attempted = List.length keys and n_failed = S.cardinal failed in
  List.iter (print_metric workload) (metrics @ printed);
  Printf.printf "%-16s %-28s %14.6g fraction (%d of %d operations failed)\n" workload
    "error_rate"
    (float_of_int n_failed /. float_of_int attempted)
    n_failed attempted;
  S.iter (fun k -> Printf.printf "%-16s failed operation %s\n" workload k) failed;
  result_line ~correct:(n_failed = 0) ~attempted ~failed:n_failed metrics

let keys_of units = List.concat_map (fun u -> u.keys) units

(* ---- tracing off ---- *)

(* Set-up is repeated at least twice and at most 25 times, until 0.5 s
   of it has been measured: the median of many short set-ups is steady.
   Times are host-speed scaled (see Calib). *)
let time_setup w ~seed =
  let rec go times units n spent =
    if n >= 25 || (n >= 2 && spent >= 0.5) then (times, units)
    else
      let units, m =
        Calib.measure (fun () ->
            ignore (load_reference ());
            w.setup ~seed)
      in
      go (m.Calib.scaled_s :: times) units (n + 1) (spent +. m.Calib.raw_s)
  in
  go [] [] 0 0.0

type pass = {
  timing : Calib.measurement;
  alloc : float;
  ops : op list;
  failed : S.t;
}

let max_passes = 50

let untraced w ~seed ~seconds =
  let setup_times, units = time_setup w ~seed in
  let setup_s = Quantiles.median setup_times in
  let keys = keys_of units in
  let start = now () in
  let rec passes acc n =
    let w0 = words () in
    let (ops, failed), timing = Calib.measure (fun () -> timed_pass units) in
    let p = { timing; alloc = words () -. w0; ops; failed } in
    let elapsed = now () -. start in
    if n + 1 < max_passes && elapsed +. timing.Calib.raw_s <= float_of_int seconds then
      passes (p :: acc) (n + 1)
    else List.rev (p :: acc)
  in
  let ps = passes [] 0 in
  let outputs p = List.map (fun o -> (o.key, o.json)) p.ops in
  let first = List.hd ps in
  let failed =
    List.fold_left
      (fun s p -> S.union s (S.union p.failed (disagreements keys (outputs first) (outputs p))))
      (S.union (malformed first.ops) (digest_failures ~workload:w.name ~seed first.ops))
      ps
  in
  let heap_words = float_of_int (Gc.quick_stat ()).Gc.top_heap_words in
  let median f = Quantiles.median (List.map f ps) in
  Printf.printf
    "%-16s %d passes of %d operations; median pass %.3f s raw, %.3f s scaled to the \
     reference host speed (%d calibration samples)\n"
    w.name (List.length ps) (List.length keys)
    (median (fun p -> p.timing.Calib.raw_s))
    (median (fun p -> p.timing.Calib.scaled_s))
    first.timing.Calib.samples;
  (match setup_times with
  | _ :: _ :: _ ->
    let q1, _, q3 = Quantiles.quartiles setup_times in
    Printf.printf "%-16s set-up median %.6f s over %d set-ups, quartiles %.6f .. %.6f s\n"
      w.name setup_s (List.length setup_times) q1 q3
  | _ -> ());
  (* The peak heap is set by the single largest replication a seed
     draws (7 to 14 MB on fig4-fluid), so it is printed but carries no
     bound in BENCHMARK.json. *)
  report ~workload:w.name ~keys ~failed
    ~printed:
      [
        {
          mname = "peak_heap_mb";
          unit_ = "MB";
          value = heap_words *. float_of_int (Sys.word_size / 8) /. 1e6;
        };
      ]
    [
      { mname = "wall_s"; unit_ = "s"; value = median (fun p -> p.timing.Calib.scaled_s) };
      { mname = "setup_s"; unit_ = "s"; value = setup_s };
      { mname = "alloc_mwords"; unit_ = "Mwords"; value = median (fun p -> p.alloc) /. 1e6 };
    ]

(* ---- tracing on ---- *)

(* Task durations of the Exec.map fans in the timed pass. Jobs run
   sequentially (jobs 1), so a task ends at the next finish event. *)
let with_task_times f =
  let times = ref [] and started = ref 0.0 and completed = ref 0 in
  Exec.Progress.set_reporter
    (Some
       (fun snap ->
         let t = now () in
         if snap.Exec.Progress.completed > !completed then begin
           times := (t -. !started) :: !times;
           completed := snap.Exec.Progress.completed
         end
         else begin
           if snap.Exec.Progress.completed < !completed then completed := 0;
           started := t
         end));
  Fun.protect
    ~finally:(fun () -> Exec.Progress.set_reporter None)
    (fun () ->
      let v = f () in
      (v, List.rev !times))

(* The per-layer metrics, in BENCHMARK.json's order. Layers a workload
   does not reach read 0. *)
let per_layer sp ~replay_s ~timed_s ~task_times =
  let self = Spans.self_s sp and calls n = float_of_int (Spans.calls sp n) in
  let mw n = Spans.self_words sp n /. 1e6 and c = Spans.counted sp in
  let events = c "sim.events" and loop_s = c "sim.loop_s" in
  let cat_wall k = c ("sim." ^ k ^ "_wall") in
  let cat_total = Array.fold_left (fun a k -> a +. cat_wall k) 0.0 Obs.Prof.categories in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let m mname unit_ value = { mname; unit_; value } in
  [
    m "topology.self_s" "s" (self "topology");
    m "topology.calls" "count" (calls "topology");
    m "interference.self_s" "s" (self "interference");
    m "interference.mwords" "Mwords" (mw "interference");
    m "interference.calls" "count" (calls "interference");
    m "routing.self_s" "s" (self "routing");
    m "routing.mwords" "Mwords" (mw "routing");
    m "routing.calls" "count" (calls "routing");
    m "control.self_s" "s" (self "control");
    m "control.mwords" "Mwords" (mw "control");
    m "control.solves" "count" (c "control.solves");
    m "control.slots" "count" (c "control.slots");
    m "baselines.fluid_self_s" "s" (self "baselines.fluid");
    m "baselines.fluid_calls" "count" (calls "baselines.fluid");
    m "lp.region_self_s" "s" (self "lp.region");
    m "lp.exact_self_s" "s" (self "lp.exact");
    m "lp.conservative_self_s" "s" (self "lp.conservative");
    m "lp.mwords" "Mwords" (mw "lp.region" +. mw "lp.exact" +. mw "lp.conservative");
    m "lp.vars" "count" (c "lp.vars");
    m "lp.rows" "count" (c "lp.rows");
    m "sim.events" "count" events;
    m "sim.loop_s" "s" loop_s;
    m "sim.events_per_s" "1/s" (ratio events loop_s);
    m "sim.mwords_per_event" "Mwords/event" (ratio (mw "sim.run") events);
    m "sim.setup_s" "s" (c "sim.setup_s");
  ]
  @ List.map
      (fun k -> m ("sim." ^ k ^ "_share") "fraction" (ratio (cat_wall k) cat_total))
      (Array.to_list Obs.Prof.categories)
  @ [
      m "obs.recorder_s" "s" (c "obs.recorder_s");
      m "fault.compile_s" "s" (self "fault.compile");
      m "fault.events" "count" (c "fault.events");
      m "recovery.route_deaths" "count" (c "recovery.route_deaths");
      m "recovery.probes" "count" (c "recovery.probes");
      m "traffic.schedule_s" "s" (self "traffic.schedule");
      m "traffic.arrivals" "count" (c "traffic.arrivals");
      m "traffic.completed" "count" (c "traffic.completed");
      m "experiments.emit_s" "s" (self "experiments.emit");
      m "exec.overhead_s" "s" (timed_s -. List.fold_left ( +. ) 0.0 task_times);
      m "exec.task_p50_ms" "ms"
        (match task_times with [] -> 0.0 | ts -> 1e3 *. Quantiles.median ts);
      m "trace.overhead_s" "s" (replay_s -. timed_s);
      m "replay.uncovered_s" "s" (self "replay");
    ]

let traced w ~seed =
  let units = w.setup ~seed in
  let keys = keys_of units in
  let t0 = now () in
  let (ops, failed), task_times = with_task_times (fun () -> timed_pass units) in
  let timed_s = now () -. t0 in
  let sp = Spans.create () in
  let replayed, replay_failed =
    Spans.span sp "replay" (fun () ->
        List.fold_left
          (fun (acc, failed) u ->
            match u.traced sp with
            | xs -> (acc @ xs, failed)
            | exception e ->
              Printf.eprintf "replay failed: %s\n%!" (Printexc.to_string e);
              (acc, List.fold_left (fun s k -> S.add k s) failed u.keys))
          ([], S.empty) units)
  in
  let failed =
    S.union failed
      (S.union replay_failed
         (S.union
            (S.union (malformed ops) (digest_failures ~workload:w.name ~seed ops))
            (disagreements keys (List.map (fun o -> (o.key, o.check)) ops) replayed)))
  in
  (* Probe spans are measurement-only engine runs (see Engine_wl). *)
  let replay_s = Spans.total_s sp "replay" -. Spans.total_s sp "probe" in
  let metrics = per_layer sp ~replay_s ~timed_s ~task_times in
  let get n = (List.find (fun m -> m.mname = n) metrics).value in
  Printf.printf "%-16s timed pass %.3f s, traced replay %.3f s, tracing overhead %+.3f s\n"
    w.name timed_s replay_s (replay_s -. timed_s);
  Printf.printf "%-16s replay time outside every layer span: %.3f s (%.1f%%)\n" w.name
    (get "replay.uncovered_s")
    (100.0 *. get "replay.uncovered_s" /. replay_s);
  Printf.printf "%-16s replay share by layer span (self time):%s\n" w.name
    (String.concat ""
       (List.filter_map
          (fun n ->
            let v = Spans.self_s sp n in
            if v > 0.0 then Some (Printf.sprintf " %s %.1f%%" n (100.0 *. v /. replay_s))
            else None)
          [
            "topology"; "interference"; "routing"; "control"; "baselines.fluid"; "lp.region";
            "lp.exact"; "lp.conservative"; "fault.compile"; "traffic.schedule"; "sim.run";
            "experiments.emit";
          ]));
  (match task_times with
  | _ :: _ :: _ ->
    let q1, q2, q3 = Quantiles.quartiles task_times in
    Printf.printf "%-16s %d Exec tasks, median %.1f ms, quartiles %.1f .. %.1f ms\n" w.name
      (List.length task_times) (1e3 *. q2) (1e3 *. q1) (1e3 *. q3)
  | _ -> ());
  if get "sim.events" > 0.0 then
    Printf.printf
      "%-16s setup cost or per-event cost? engine set-up %.3f s (zero-duration runs), \
       event loop %.3f s for %.0f events (%.0f ns/event), Recorder %+.3f s\n"
      w.name (get "sim.setup_s") (get "sim.loop_s") (get "sim.events")
      (1e9 *. get "sim.loop_s" /. get "sim.events")
      (get "obs.recorder_s");
  report ~workload:w.name ~keys ~failed metrics

(* Reference lines for [reference_path] at the default seed. *)
let pin w =
  let units = w.setup ~seed:default_seed in
  let ops, failed = timed_pass units in
  if not (S.is_empty failed) then failwith "pin: an operation failed";
  print_string
    (Digests.render_reference
       (List.map (fun o -> (w.name, o.key, Digests.of_output o.json)) ops))
