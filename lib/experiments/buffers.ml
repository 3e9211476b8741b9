(* Section 6.4 TCP-friendliness rerun under finite shared buffers:
   sweep pool size x DT alpha x ECN threshold, comparing a Reno TCP, a
   DCTCP-style TCP and EMPoWER's UDP reorder-buffer+delay-equalization
   path over the same congested testbed flow. See the .mli. *)

type variant_result = {
  variant : string;
  goodput_mbps : float;
  queue_drops : int;
  ecn_marks : int;
  buffer_peak_bytes : int;
  frames_lost : int;
}

type point = {
  pool_frames : int;
  dt_alpha : float;
  ecn_frames : int;
  variants : variant_result list;
}

type data = {
  seed : int;
  duration : float;
  frame_bytes : int;
  pools : int list;
  alphas : float list;
  ecns : int list;
  points : point list;
}

(* The chaos harness's testbed flow: plenty of multi-hop contention,
   so a window-driven sender actually builds standing queues. *)
let flow_src = 0
let flow_dst = 12

let buffers_of ~frame_bytes ~pool_frames ~dt_alpha ~ecn_frames =
  {
    Engine.policy =
      (if dt_alpha <= 0.0 then Engine.Static
       else Engine.Dynamic_threshold dt_alpha);
    pool_bytes = pool_frames * frame_bytes;
    ecn_threshold_bytes =
      (if ecn_frames <= 0 then None else Some (ecn_frames * frame_bytes));
  }

let variant_name = function
  | `Reno -> "reno"
  | `Dctcp -> "dctcp"
  | `Empower -> "empower"

let measure inst variant ~buffers ~seed ~duration =
  let net = Runner.network inst Schemes.Empower in
  let rr = Runner.routes_and_rates net Schemes.Empower ~src:flow_src ~dst:flow_dst in
  if fst rr = [] then invalid_arg "Buffers: no route on the testbed flow";
  (* The TCP senders run on the scheme's primary route only — the
     classic single-bottleneck congestion setup; multipath spraying
     would confound the buffer signal with reordering stalls. *)
  let first (rs, vs) = ([ List.hd rs ], [ List.hd vs ]) in
  let spec =
    match variant with
    | `Reno ->
      Runner.flow_spec ~transport:Engine.Tcp_transport ~src:flow_src
        ~dst:flow_dst (first rr)
    | `Dctcp ->
      Runner.flow_spec ~transport:Engine.Tcp_transport
        ~tcp_params:Tcp.dctcp_params ~src:flow_src ~dst:flow_dst (first rr)
    | `Empower -> Runner.flow_spec ~src:flow_src ~dst:flow_dst rr
  in
  (* The TCP variants run unpoliced (no EMPoWER CC, no equalization):
     the point of the sweep is the sender's own reaction to buffer
     pressure. EMPoWER keeps its controller and delay equalization —
     the Section 6.4 configuration. *)
  let empower = variant = `Empower in
  let config =
    {
      Engine.default_config with
      enable_cc = empower;
      delay_equalize = empower;
      buffers = Some buffers;
    }
  in
  let res = Empower.simulate ~config ~seed net ~flows:[ spec ] ~duration in
  let warmup = 2 in
  let gp, _ =
    Runner.goodput_stats res.Engine.flows.(0)
      ~last_seconds:(max 1 (int_of_float duration - warmup))
      ~duration
  in
  {
    variant = variant_name variant;
    goodput_mbps = gp;
    queue_drops = res.Engine.queue_drops;
    ecn_marks = res.Engine.ecn_marks;
    buffer_peak_bytes = res.Engine.buffer_peak_bytes;
    frames_lost = res.Engine.flows.(0).Engine.frames_lost;
  }

let default_pools = [ 16; 64 ]
let default_alphas = [ 0.5; 1.0 ]
let default_ecns = [ 0; 8 ]

let sweep ?(seed = 23) ?(duration = 20.0) ?(pools = default_pools)
    ?(alphas = default_alphas) ?(ecns = default_ecns) ?jobs () =
  if pools = [] || alphas = [] || ecns = [] then
    invalid_arg "Buffers.sweep: empty sweep axis";
  List.iter
    (fun p -> if p <= 0 then invalid_arg "Buffers.sweep: pool must be positive")
    pools;
  let frame_bytes = Engine.frame_bytes in
  let inst = Testbed.generate (Rng.create 4242) in
  let grid =
    List.concat_map
      (fun pool ->
        List.concat_map
          (fun alpha -> List.map (fun ecn -> (pool, alpha, ecn)) ecns)
          alphas)
      pools
  in
  (* Each grid point is an independent pure job; per-variant seeds
     derive from the point index alone, so the sweep is byte-identical
     at any [jobs] count. *)
  let points =
    Exec.mapi ?jobs
      (fun i (pool_frames, dt_alpha, ecn_frames) ->
        let buffers =
          buffers_of ~frame_bytes ~pool_frames ~dt_alpha ~ecn_frames
        in
        let s = seed + (100 * i) in
        {
          pool_frames;
          dt_alpha;
          ecn_frames;
          variants =
            [
              measure inst `Reno ~buffers ~seed:s ~duration;
              measure inst `Dctcp ~buffers ~seed:(s + 1) ~duration;
              measure inst `Empower ~buffers ~seed:(s + 2) ~duration;
            ];
        })
      grid
  in
  { seed; duration; frame_bytes; pools; alphas; ecns; points }

let print ?(out = stdout) d =
  let p fmt = Printf.fprintf out fmt in
  p
    "--- buffers: seed %d, %.0f s per run, %d-byte frames, shared pool per \
     node ---\n"
    d.seed d.duration d.frame_bytes;
  List.iter
    (fun pt ->
      let policy =
        if pt.dt_alpha <= 0.0 then "static"
        else Printf.sprintf "DT alpha=%g" pt.dt_alpha
      in
      let ecn =
        if pt.ecn_frames <= 0 then "ecn off"
        else Printf.sprintf "ecn@%df" pt.ecn_frames
      in
      p "pool %3d frames, %-12s %-7s\n" pt.pool_frames policy ecn;
      List.iter
        (fun v ->
          p
            "  %-8s goodput %7.3f Mbit/s  drops %5d  marks %5d  peak %3d \
             frames  lost %4d\n"
            v.variant v.goodput_mbps v.queue_drops v.ecn_marks
            (v.buffer_peak_bytes / d.frame_bytes)
            v.frames_lost)
        pt.variants)
    d.points
