(* Reference oracle for the compiled routing layer: the closure-based
   Dijkstra with its [constraints] record, Yen's algorithm with per-spur
   hash tables, the two-direction interference predicate, the
   hash-table [update(P, G)] that recomputes R(P) for every touched
   link, and the exploration tree built on them, exactly as they were
   written before Dijkstra was compiled into a reusable search. The
   differential tests in test_routing.ml require the library to agree
   with these bit for bit. *)

module Dijkstra = struct
  type constraints = {
    banned_links : int -> bool;
    banned_nodes : int -> bool;
  }

  let no_constraints = { banned_links = (fun _ -> false); banned_nodes = (fun _ -> false) }

  let wns g u =
    List.fold_left
      (fun acc l -> if Multigraph.usable g l then min acc (Multigraph.d g l) else acc)
      infinity (Multigraph.out_links g u)

  let csc_cost g ~enabled ~in_tech ~out_tech u =
    if not enabled then 0.0
    else
      match in_tech with
      | None -> 0.0
      | Some k -> if k = out_tech then wns g u else 0.0

  let state_id ~k node in_tech = (node * (k + 1)) + in_tech + 1

  let shortest_path ?(csc = true) ?(constraints = no_constraints) ?init_tech g ~src
      ~dst =
    if src = dst then invalid_arg "Dijkstra.shortest_path: src = dst";
    let k = Multigraph.n_techs g in
    let n_states = Multigraph.n_nodes g * (k + 1) in
    let dist = Array.make n_states infinity in
    let via = Array.make n_states (-1) in
    let prev = Array.make n_states (-1) in
    let queue = Pqueue.create () in
    let init_in = match init_tech with None -> -1 | Some t -> t in
    let s0 = state_id ~k src init_in in
    dist.(s0) <- 0.0;
    Pqueue.push queue 0.0 (src, init_in);
    let best_dst = ref None in
    let rec run () =
      match Pqueue.pop queue with
      | None -> ()
      | Some (cost, (u, in_tech)) ->
        let su = state_id ~k u in_tech in
        if cost > dist.(su) then run ()
        else if u = dst then best_dst := Some (u, in_tech)
        else begin
          let relax l =
            let lk = Multigraph.link g l in
            if
              Multigraph.usable g l
              && (not (constraints.banned_links l))
              && not (constraints.banned_nodes lk.Multigraph.dst)
            then begin
              let in_t = if in_tech < 0 then None else Some in_tech in
              let step =
                Multigraph.d g l
                +. csc_cost g ~enabled:csc ~in_tech:in_t ~out_tech:lk.Multigraph.tech u
              in
              if Float.is_finite step then begin
                let nd = cost +. step in
                let sv = state_id ~k lk.Multigraph.dst lk.Multigraph.tech in
                if nd < dist.(sv) then begin
                  dist.(sv) <- nd;
                  via.(sv) <- l;
                  prev.(sv) <- su;
                  Pqueue.push queue nd (lk.Multigraph.dst, lk.Multigraph.tech)
                end
              end
            end
          in
          List.iter relax (Multigraph.out_links g u);
          run ()
        end
    in
    run ();
    match !best_dst with
    | None -> None
    | Some (u, in_tech) ->
      let rec back s acc =
        let l = via.(s) in
        if l < 0 then acc else back prev.(s) (l :: acc)
      in
      let s_final = state_id ~k u in_tech in
      let links = back s_final [] in
      let path = Paths.of_links g links in
      Some (path, dist.(s_final))

  let path_cost ?(csc = true) ?init_tech g path =
    let rec go in_tech links acc =
      match links with
      | [] -> acc
      | l :: rest ->
        if not (Multigraph.usable g l) then infinity
        else begin
          let lk = Multigraph.link g l in
          let sw =
            csc_cost g ~enabled:csc ~in_tech ~out_tech:lk.Multigraph.tech
              lk.Multigraph.src
          in
          go (Some lk.Multigraph.tech) rest (acc +. Multigraph.d g l +. sw)
        end
    in
    go init_tech path.Paths.links 0.0
end

module Yen = struct
  module Path_set = Set.Make (struct
    type t = int list

    let compare = Stdlib.compare
  end)

  let k_shortest ?(csc = true) g ~src ~dst ~k =
    if k < 1 then invalid_arg "Yen.k_shortest: k < 1";
    match Dijkstra.shortest_path ~csc g ~src ~dst with
    | None -> []
    | Some first ->
      let accepted = ref [ first ] in
      let seen = ref (Path_set.singleton (fst first).Paths.links) in
      let candidates = Pqueue.create () in
      let add_candidate (p, c) =
        if (not (Path_set.mem p.Paths.links !seen)) && Paths.is_loopless g p then begin
          seen := Path_set.add p.Paths.links !seen;
          Pqueue.push candidates c p
        end
      in
      let expand (prev_path, _) =
        let links = Array.of_list prev_path.Paths.links in
        let nodes = Array.of_list (Paths.nodes g prev_path) in
        for i = 0 to Array.length links - 1 do
          let spur_node = nodes.(i) in
          let root_links = Array.to_list (Array.sub links 0 i) in
          let banned_links_tbl = Hashtbl.create 8 in
          let consider p =
            let pl = p.Paths.links in
            let rec prefix_match a b =
              match (a, b) with
              | [], _ -> true
              | x :: xs, y :: ys when x = y -> prefix_match xs ys
              | _ -> false
            in
            if prefix_match root_links pl then
              match List.nth_opt pl i with
              | Some l -> Hashtbl.replace banned_links_tbl l ()
              | None -> ()
          in
          List.iter (fun (p, _) -> consider p) !accepted;
          let banned_nodes_tbl = Hashtbl.create 8 in
          for j = 0 to i - 1 do
            Hashtbl.replace banned_nodes_tbl nodes.(j) ()
          done;
          let constraints =
            {
              Dijkstra.banned_links = Hashtbl.mem banned_links_tbl;
              banned_nodes = Hashtbl.mem banned_nodes_tbl;
            }
          in
          let init_tech =
            if i = 0 then None
            else Some (Multigraph.link g links.(i - 1)).Multigraph.tech
          in
          let spur =
            match init_tech with
            | None -> Dijkstra.shortest_path ~csc ~constraints g ~src:spur_node ~dst
            | Some t ->
              Dijkstra.shortest_path ~csc ~constraints ~init_tech:t g ~src:spur_node
                ~dst
          in
          match spur with
          | None -> ()
          | Some (spur_path, _) ->
            let total_links = root_links @ spur_path.Paths.links in
            let p = Paths.of_links g total_links in
            let cost = Dijkstra.path_cost ~csc g p in
            if Float.is_finite cost then add_candidate (p, cost)
        done
      in
      let rec loop () =
        if List.length !accepted >= k then ()
        else begin
          expand (List.hd !accepted);
          match Pqueue.pop candidates with
          | None -> ()
          | Some (cost, p) ->
            accepted := (p, cost) :: !accepted;
            loop ()
        end
      in
      loop ();
      List.sort (fun (_, a) (_, b) -> compare a b) (List.rev !accepted)
end

module Update = struct
  let domain_path_weight g dom path l =
    List.fold_left
      (fun acc l' ->
        if Domain.interferes dom l l' then acc +. Multigraph.d g l' else acc)
      0.0 path.Paths.links

  let rate_on_link g dom path l =
    let w = domain_path_weight g dom path l in
    if Float.is_finite w && w > 0.0 then 1.0 /. w else 0.0

  let path_rate g dom path =
    List.fold_left
      (fun acc l -> Float.min acc (rate_on_link g dom path l))
      infinity path.Paths.links

  let idle_fraction g dom path l =
    let r = path_rate g dom path in
    if r <= 0.0 then 1.0
    else begin
      let consumed = r *. domain_path_weight g dom path l in
      Float.max 0.0 (Float.min 1.0 (1.0 -. consumed))
    end

  let update g dom path =
    let caps = Multigraph.capacities g in
    let touched = Hashtbl.create 32 in
    List.iter
      (fun l ->
        List.iter (fun l' -> Hashtbl.replace touched l' ()) (Domain.domain dom l))
      path.Paths.links;
    Hashtbl.iter (fun l () -> caps.(l) <- caps.(l) *. idle_fraction g dom path l) touched;
    Multigraph.with_capacities g caps
end

module Multipath = struct
  let find ?(n = 5) ?(csc = true) ?(max_depth = 6) ?(min_rate = 0.1)
      ?(max_vertices = 2_000) g dom ~src ~dst =
    if n < 1 then invalid_arg "Multipath.find: n < 1";
    if src = dst then invalid_arg "Multipath.find: src = dst";
    let vertices = ref 0 in
    let best =
      ref
        { Multipath.paths = []; total_rate = 0.0; tree_depth = 0; tree_vertices = 0 }
    in
    let consider_leaf acc_paths acc_total depth =
      if acc_total > !best.Multipath.total_rate then
        best :=
          {
            Multipath.paths = List.rev acc_paths;
            total_rate = acc_total;
            tree_depth = depth;
            tree_vertices = 0;
          }
    in
    let rec explore g depth acc_paths acc_total =
      incr vertices;
      let budget_ok = !vertices < max_vertices in
      let candidates =
        if depth >= max_depth || not budget_ok then []
        else begin
          Yen.k_shortest ~csc g ~src ~dst ~k:n
          |> List.filter_map (fun (p, _) ->
                 let r = Update.path_rate g dom p in
                 if r >= min_rate then Some (p, r) else None)
        end
      in
      match candidates with
      | [] -> consider_leaf acc_paths acc_total depth
      | _ ->
        List.iter
          (fun (p, r) ->
            let g' = Update.update g dom p in
            explore g' (depth + 1) ((p, r) :: acc_paths) (acc_total +. r))
          candidates
    in
    explore g 0 [] 0.0;
    { !best with Multipath.tree_vertices = !vertices }
end

(* Last, so that the modules above use the library's Domain.t. The
   interference structure as the symmetric matrix and the sorted
   domain lists, built by asking the predicate in both directions. *)
module Domain = struct
  let create g ~interferes =
    let n = Multigraph.num_links g in
    let matrix = Array.make_matrix n n false in
    for l = 0 to n - 1 do
      matrix.(l).(l) <- true;
      let peer = (Multigraph.link g l).Multigraph.peer in
      matrix.(l).(peer) <- true;
      for l' = l + 1 to n - 1 do
        if interferes l l' || interferes l' l then begin
          matrix.(l).(l') <- true;
          matrix.(l').(l) <- true
        end
      done
    done;
    let domains =
      Array.init n (fun l ->
          let acc = ref [] in
          for l' = n - 1 downto 0 do
            if matrix.(l).(l') then acc := l' :: !acc
          done;
          !acc)
    in
    (matrix, domains)

  let endpoint_distance positions (a : Multigraph.link) (b : Multigraph.link) =
    let dist u v = Geometry.distance positions.(u) positions.(v) in
    let open Multigraph in
    Float.min
      (Float.min (dist a.src b.src) (dist a.src b.dst))
      (Float.min (dist a.dst b.src) (dist a.dst b.dst))

  let standard ?(cs_factor = 1.5) g ~techs ~positions ~panels =
    let interferes l l' =
      let a = Multigraph.link g l and b = Multigraph.link g l' in
      let open Multigraph in
      if a.tech <> b.tech then false
      else begin
        let tech = techs.(a.tech) in
        if Technology.is_plc tech then panels.(a.src) = panels.(b.src)
        else begin
          let cs_range = cs_factor *. tech.Technology.conn_radius_m in
          a.src = b.src || a.src = b.dst || a.dst = b.src || a.dst = b.dst
          || endpoint_distance positions a b <= cs_range
        end
      end
    in
    create g ~interferes
end
