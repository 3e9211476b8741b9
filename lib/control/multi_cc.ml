(* The fluid solve's constant step size α of the rate update. *)
let alpha = 0.02

let solve ?(gain = 50.0) ?(slots = 2000) ?stop_tol ?x_init (problem : Problem.t) =
  let n_routes = Problem.n_routes problem in
  let x =
    match x_init with
    | Some x0 ->
      if Array.length x0 <> n_routes then
        invalid_arg "Multi_cc.solve: x_init length mismatch";
      Array.copy x0
    | None -> Array.make n_routes 0.0
  in
  let x_bar = Array.copy x in
  let n_flows = Problem.n_flows problem in
  let flow_of = problem.Problem.flow_of in
  let kernel = Price.create problem in
  let q = Price.q kernel and marginal = Price.marginal kernel in
  let trace = Array.make slots [||] in
  let stopped = ref (-1) in
  let t = ref 0 in
  while !t < slots && !stopped < 0 do
    Price.step kernel ~x ~alpha;
    Price.route_costs kernel;
    Price.marginals kernel ~x;
    for r = 0 to n_routes - 1 do
      let upd = x_bar.(r) +. (gain *. (marginal.(flow_of.(r)) -. q.(r))) in
      (* [Float.max 0.0 upd], bit for bit (NaN passes through). *)
      let inner = if upd <= 0.0 then 0.0 else upd in
      x.(r) <- ((1.0 -. alpha) *. x.(r)) +. (alpha *. inner)
    done;
    for r = 0 to n_routes - 1 do
      x_bar.(r) <- ((1.0 -. alpha) *. x_bar.(r)) +. (alpha *. x.(r))
    done;
    (* The trace row is the only per-slot allocation. *)
    let row = Array.make n_flows 0.0 in
    Price.flow_rates kernel ~x row;
    trace.(!t) <- row;
    (* Optional early stop: no flow rate moved by more than the
       tolerance over the last 200 slots. *)
    (match stop_tol with
    | Some tol when !t >= 200 && !t mod 50 = 0 ->
      let before = trace.(!t - 200) in
      let settled = ref true in
      for f = 0 to n_flows - 1 do
        let v = row.(f) in
        if Float.abs (v -. before.(f)) > Float.max tol (0.005 *. Float.abs v) then
          settled := false
      done;
      if !settled then stopped := !t
    | Some _ | None -> ());
    incr t
  done;
  (* Pad the trace so convergence measurement still works. *)
  if !stopped >= 0 then
    for t' = !stopped + 1 to slots - 1 do
      trace.(t') <- trace.(!stopped)
    done;
  {
    Cc_result.rates = x;
    flow_rates = Problem.flow_rates problem x;
    slots;
    trace;
  }
