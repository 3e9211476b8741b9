let solve_tracked ?alpha ?(gain = 50.0) ?(slots = 2000) ?stop_tol ?x_init ?sink
    ?ack_loss ?(price_drain = 0.0) ~on_slot (problem : Problem.t) =
  if (not (Float.is_finite price_drain)) || price_drain < 0.0 then
    invalid_arg "Multi_cc.solve: price_drain must be finite and >= 0";
  let alpha = match alpha with Some a -> a | None -> Alpha.fixed 0.02 in
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
  (* Convergence tracing: per-slot Price_update for every link some
     route traverses (γ_l and the full congestion price) and
     Rate_update per flow, with the slot index as the timestamp. *)
  let emit_slot slot x =
    match sink with
    | None -> ()
    | Some s ->
      let t_s = float_of_int slot in
      Price.iter_route_links kernel (fun ~link ~gamma ~price ->
          Obs.Trace.emit s (Obs.Trace.Price_update { t = t_s; link; gamma; price }));
      Array.iteri
        (fun f route_ids ->
          let rates = Array.of_list (List.map (fun r -> x.(r)) route_ids) in
          Obs.Trace.emit s (Obs.Trace.Rate_update { t = t_s; flow = f; rates }))
        problem.Problem.flow_routes
  in
  let trace = Array.make slots [||] in
  (* Control-message loss: a flow whose price/rate report for this
     slot is lost simply keeps its current rates (both x and the
     proximal anchor x_bar hold still), while the duals keep evolving
     from the observed airtimes — the source reacts again on the next
     delivered report. The per-slot verdicts are drawn once per flow,
     in flow order, into this reused array. *)
  let lost = Array.make n_flows false in
  let stopped = ref (-1) in
  let t = ref 0 in
  while !t < slots && !stopped < 0 do
    let a = Alpha.current alpha in
    Price.step kernel ~x ~alpha:a ~drain:price_drain;
    Price.route_costs kernel;
    Price.marginals kernel ~x;
    (match ack_loss with
    | None -> ()
    | Some p ->
      for f = 0 to n_flows - 1 do
        lost.(f) <- p ~slot:!t ~flow:f
      done);
    for r = 0 to n_routes - 1 do
      let f = flow_of.(r) in
      if not lost.(f) then begin
        let upd = x_bar.(r) +. (gain *. (marginal.(f) -. q.(r))) in
        (* [Float.max 0.0 upd], bit for bit (NaN passes through). *)
        let inner = if upd <= 0.0 then 0.0 else upd in
        x.(r) <- ((1.0 -. a) *. x.(r)) +. (a *. inner)
      end
    done;
    for r = 0 to n_routes - 1 do
      if not lost.(flow_of.(r)) then
        x_bar.(r) <- ((1.0 -. a) *. x_bar.(r)) +. (a *. x.(r))
    done;
    (* The trace row is the only per-slot allocation. *)
    let row = Array.make n_flows 0.0 in
    Price.flow_rates kernel ~x row;
    trace.(!t) <- row;
    Alpha.observe alpha row;
    emit_slot !t x;
    on_slot !t x;
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

let solve ?alpha ?gain ?slots ?stop_tol ?x_init ?sink ?ack_loss ?price_drain
    problem =
  solve_tracked ?alpha ?gain ?slots ?stop_tol ?x_init ?sink ?ack_loss
    ?price_drain
    ~on_slot:(fun _ _ -> ())
    problem
