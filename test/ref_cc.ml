(* Reference oracle for the controller kernel: the list-based dual
   arithmetic ([airtimes] / [step_gamma] / [route_costs]), the
   multipath slot loop, the packet engine's inlined control-tick
   update and the option-based step-size heuristic, exactly as they
   were written before they were compiled into [Price] and [Alpha].
   The differential tests in test_control.ml require the kernel to
   agree with these bit for bit. *)

module Alpha = struct
  type t = {
    mutable alpha : float;
    mutable prev : float option;
    mutable prev_diff : float;
    mutable last_amplitude : float;
    mutable oscillations : int;
  }

  let make alpha =
    { alpha; prev = None; prev_diff = 0.0; last_amplitude = 0.0; oscillations = 0 }

  let current t = t.alpha

  let observe t rate =
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
      demand.(c) <- p.Problem.d.(l) *. !traffic
    done;
    let y = Array.make t.n_links 0.0 in
    Array.iteri
      (fun pos i ->
        let acc = ref 0.0 in
        Array.iter (fun c -> acc := !acc +. demand.(c)) t.priced_carriers.(pos);
        y.(i) <- !acc)
      t.priced;
    y

  let step_gamma t ~y ~alpha =
    let target = 1.0 -. t.problem.Problem.delta in
    Array.iter
      (fun i ->
        let upd = t.gamma.(i) +. (alpha *. (y.(i) -. target)) in
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

(* The multipath slot loop at the fluid solve's constant step size. *)
let solve ?(gain = 50.0) ~slots ?stop_tol ?x_init (problem : Problem.t) =
  let a = 0.02 in
  let n_routes = Problem.n_routes problem in
  let x =
    match x_init with Some x0 -> Array.copy x0 | None -> Array.make n_routes 0.0
  in
  let x_bar = Array.copy x in
  let price = Price.create problem in
  let trace = Array.make slots [||] in
  let stopped = ref None in
  let t = ref 0 in
  while !t < slots && !stopped = None do
    let y = Price.airtimes price ~x in
    Price.step_gamma price ~y ~alpha:a;
    let q = Price.route_costs price in
    let flow_rate = Problem.flow_rates problem x in
    for r = 0 to n_routes - 1 do
      let f = problem.Problem.flow_of.(r) in
      let inner =
        Float.max 0.0 (x_bar.(r) +. (gain *. (Utility.u' flow_rate.(f) -. q.(r))))
      in
      x.(r) <- ((1.0 -. a) *. x.(r)) +. (a *. inner)
    done;
    for r = 0 to n_routes - 1 do
      x_bar.(r) <- ((1.0 -. a) *. x_bar.(r)) +. (a *. x.(r))
    done;
    let flow_rates = Problem.flow_rates problem x in
    trace.(!t) <- flow_rates;
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
  { Cc_result.rates = x; flow_rates = Problem.flow_rates problem x; slots; trace }

(* The packet engine's control-tick dual update: [demand] is indexed
   by link id (0 off the carriers) and [y] sums it over every link of
   the full interference domain. *)
let engine_step dom ~priced_links ~demand ~gamma ~gamma_alpha ~delta =
  List.iter
    (fun l ->
      let y = List.fold_left (fun acc i -> acc +. demand.(i)) 0.0 (Domain.domain dom l) in
      let upd = gamma.(l) +. (gamma_alpha *. (y -. (1.0 -. delta))) in
      gamma.(l) <- Float.max 0.0 upd)
    priced_links
