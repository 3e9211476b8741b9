(* Reference oracle for the controller kernel: the list-based dual
   arithmetic ([airtimes] / [step_gamma] / [route_costs]), the
   multipath slot loop, the packet engine's inlined control-tick
   update and the option-based step-size heuristic, exactly as they
   were written before they were compiled into [Price]. The
   differential tests in test_control.ml require the kernel to agree
   with these bit for bit. *)

module Alpha = struct
  type t = {
    mutable alpha : float;
    adaptive : bool;
    mutable prev : float option;
    mutable prev_diff : float;
    mutable last_amplitude : float;
    mutable oscillations : int;
  }

  let make ~adaptive alpha =
    { alpha; adaptive; prev = None; prev_diff = 0.0; last_amplitude = 0.0; oscillations = 0 }

  let current t = t.alpha

  let observe t rate =
    if t.adaptive then begin
      match t.prev with
      | None -> t.prev <- Some rate
      | Some prev ->
        let diff = rate -. prev in
        t.prev <- Some rate;
        if Float.abs diff > 1e-9 then begin
          let sign_flip = t.prev_diff *. diff < 0.0 in
          if sign_flip then begin
            let amplitude = Float.abs diff in
            if amplitude >= t.last_amplitude -. 1e-12 then
              t.oscillations <- t.oscillations + 1
            else t.oscillations <- 0;
            t.last_amplitude <- amplitude;
            if t.oscillations >= 6 then begin
              t.alpha <- t.alpha /. 2.0;
              t.oscillations <- 0;
              t.last_amplitude <- 0.0
            end
          end;
          t.prev_diff <- diff
        end
    end
end

module Price = struct
  type t = {
    problem : Problem.t;
    gamma : float array;
    carriers : int array;
    on_link : int array array;
    priced : int array;
    priced_carriers : int array array;
    route_domains : int array array;
    n_links : int;
  }

  let create (problem : Problem.t) =
    let g = problem.Problem.g in
    let dom = problem.Problem.dom in
    let n_links = Multigraph.num_links g in
    let is_carrier = Array.make n_links false in
    Array.iter
      (fun p -> List.iter (fun l -> is_carrier.(l) <- true) p.Paths.links)
      problem.Problem.routes;
    Array.iteri
      (fun l ext -> if ext > 0.0 then is_carrier.(l) <- true)
      problem.Problem.external_airtime;
    let carriers =
      Array.of_list (List.filter (fun l -> is_carrier.(l)) (List.init n_links Fun.id))
    in
    let carrier_pos = Array.make n_links (-1) in
    Array.iteri (fun pos l -> carrier_pos.(l) <- pos) carriers;
    let is_priced = Array.make n_links false in
    Array.iter
      (fun l -> List.iter (fun i -> is_priced.(i) <- true) (Domain.domain dom l))
      carriers;
    let priced =
      Array.of_list (List.filter (fun l -> is_priced.(l)) (List.init n_links Fun.id))
    in
    let priced_pos = Array.make n_links (-1) in
    Array.iteri (fun pos l -> priced_pos.(l) <- pos) priced;
    let on_link =
      Array.map
        (fun l ->
          let rs = ref [] in
          Array.iteri
            (fun r p -> if Paths.mem_link p l then rs := r :: !rs)
            problem.Problem.routes;
          Array.of_list (List.rev !rs))
        carriers
    in
    let priced_carriers =
      Array.map
        (fun i ->
          Domain.domain dom i
          |> List.filter_map (fun l ->
                 if carrier_pos.(l) >= 0 then Some carrier_pos.(l) else None)
          |> Array.of_list)
        priced
    in
    let route_domains =
      Array.map
        (fun l ->
          Domain.domain dom l
          |> List.filter_map (fun i ->
                 if priced_pos.(i) >= 0 then Some priced_pos.(i) else None)
          |> Array.of_list)
        carriers
    in
    {
      problem;
      gamma = Array.make n_links 0.0;
      carriers;
      on_link;
      priced;
      priced_carriers;
      route_domains;
      n_links;
    }

  let airtimes t ~x =
    let p = t.problem in
    let n_carriers = Array.length t.carriers in
    let demand = Array.make n_carriers 0.0 in
    for c = 0 to n_carriers - 1 do
      let l = t.carriers.(c) in
      let traffic = ref 0.0 in
      Array.iter (fun r -> traffic := !traffic +. x.(r)) t.on_link.(c);
      demand.(c) <- (p.Problem.d.(l) *. !traffic) +. p.Problem.external_airtime.(l)
    done;
    let y = Array.make t.n_links 0.0 in
    Array.iteri
      (fun pos i ->
        let acc = ref 0.0 in
        Array.iter (fun c -> acc := !acc +. demand.(c)) t.priced_carriers.(pos);
        y.(i) <- !acc)
      t.priced;
    y

  let step_gamma ?(drain = 0.0) t ~y ~alpha =
    let target = 1.0 -. t.problem.Problem.delta in
    Array.iter
      (fun i ->
        let upd = t.gamma.(i) +. (alpha *. (y.(i) -. target)) in
        let upd = if drain > 0.0 then upd -. drain else upd in
        t.gamma.(i) <- Float.max 0.0 upd)
      t.priced

  let route_costs t =
    let p = t.problem in
    let link_price = Array.make t.n_links 0.0 in
    Array.iteri
      (fun c l ->
        let acc = ref 0.0 in
        Array.iter
          (fun pos -> acc := !acc +. t.gamma.(t.priced.(pos)))
          t.route_domains.(c);
        link_price.(l) <- p.Problem.d.(l) *. !acc)
      t.carriers;
    Array.map
      (fun path ->
        List.fold_left (fun acc l -> acc +. link_price.(l)) 0.0 path.Paths.links)
      p.Problem.routes
end

(* The multipath slot loop; returns the result and the final γ. *)
let solve ~alpha ?(gain = 50.0) ~slots ?stop_tol ?x_init ?sink ?ack_loss
    ?(price_drain = 0.0) (problem : Problem.t) =
  let n_routes = Problem.n_routes problem in
  let x =
    match x_init with Some x0 -> Array.copy x0 | None -> Array.make n_routes 0.0
  in
  let x_bar = Array.copy x in
  let price = Price.create problem in
  let carrier_links =
    match sink with
    | None -> []
    | Some _ ->
      let n_links = Multigraph.num_links problem.Problem.g in
      let seen = Array.make n_links false in
      Array.iter
        (fun (p : Paths.t) -> List.iter (fun l -> seen.(l) <- true) p.Paths.links)
        problem.Problem.routes;
      List.filter (fun l -> seen.(l)) (List.init n_links Fun.id)
  in
  let emit_slot slot x =
    match sink with
    | None -> ()
    | Some s ->
      let t_s = float_of_int slot in
      let gamma = price.Price.gamma in
      List.iter
        (fun l ->
          let g_sum =
            List.fold_left
              (fun acc i -> acc +. gamma.(i))
              0.0
              (Domain.domain problem.Problem.dom l)
          in
          Obs.Trace.emit s
            (Obs.Trace.Price_update
               { t = t_s; link = l; gamma = gamma.(l); price = problem.Problem.d.(l) *. g_sum }))
        carrier_links;
      Array.iteri
        (fun f route_ids ->
          let rates = Array.of_list (List.map (fun r -> x.(r)) route_ids) in
          Obs.Trace.emit s (Obs.Trace.Rate_update { t = t_s; flow = f; rates }))
        problem.Problem.flow_routes
  in
  let trace = Array.make slots [||] in
  let u' = problem.Problem.utility.Utility.u' in
  let stopped = ref None in
  let t = ref 0 in
  while !t < slots && !stopped = None do
    let a = Alpha.current alpha in
    let y = Price.airtimes price ~x in
    Price.step_gamma ~drain:price_drain price ~y ~alpha:a;
    let q = Price.route_costs price in
    let flow_rate = Problem.flow_rates problem x in
    let lost =
      match ack_loss with
      | None -> fun _ -> false
      | Some p ->
        let slot = !t in
        let memo =
          Array.init (Array.length problem.Problem.flow_routes) (fun f -> p ~slot ~flow:f)
        in
        fun f -> memo.(f)
    in
    for r = 0 to n_routes - 1 do
      let f = problem.Problem.flow_of.(r) in
      if not (lost f) then begin
        let inner = Float.max 0.0 (x_bar.(r) +. (gain *. (u' flow_rate.(f) -. q.(r)))) in
        x.(r) <- ((1.0 -. a) *. x.(r)) +. (a *. inner)
      end
    done;
    for r = 0 to n_routes - 1 do
      if not (lost problem.Problem.flow_of.(r)) then
        x_bar.(r) <- ((1.0 -. a) *. x_bar.(r)) +. (a *. x.(r))
    done;
    let flow_rates = Problem.flow_rates problem x in
    trace.(!t) <- flow_rates;
    Alpha.observe alpha (Array.fold_left ( +. ) 0.0 flow_rates);
    emit_slot !t x;
    (match stop_tol with
    | Some tol when !t >= 200 && !t mod 50 = 0 ->
      let settled = ref true in
      Array.iteri
        (fun f v ->
          let prev = trace.(!t - 200).(f) in
          if Float.abs (v -. prev) > Float.max tol (0.005 *. Float.abs v) then
            settled := false)
        flow_rates;
      if !settled then stopped := Some !t
    | Some _ | None -> ());
    incr t
  done;
  (match !stopped with
  | Some s ->
    for t' = s + 1 to slots - 1 do
      trace.(t') <- trace.(s)
    done
  | None -> ());
  ( { Cc_result.rates = x; flow_rates = Problem.flow_rates problem x; slots; trace },
    price.Price.gamma )

(* The packet engine's control-tick dual update: [demand] is indexed
   by link id (0 off the carriers), [y] sums it over every link of the
   full interference domain, and the drain applies only when
   positive. *)
let engine_step dom ~priced_links ~demand ~gamma ~gamma_alpha ~delta ~price_drain
    ~control_period =
  List.iter
    (fun l ->
      let y = List.fold_left (fun acc i -> acc +. demand.(i)) 0.0 (Domain.domain dom l) in
      let upd = gamma.(l) +. (gamma_alpha *. (y -. (1.0 -. delta))) in
      let upd =
        if price_drain > 0.0 then upd -. (price_drain *. control_period) else upd
      in
      gamma.(l) <- Float.max 0.0 upd)
    priced_links
