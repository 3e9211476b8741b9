type link = {
  id : int;
  src : int;
  dst : int;
  tech : int;
  peer : int;
  edge : int;
}

type t = {
  n_nodes : int;
  n_techs : int;
  links : link array;
  caps : float array;
  out_of : int list array;
  in_of : int list array;
}

let n_nodes t = t.n_nodes
let n_techs t = t.n_techs
let num_links t = Array.length t.links

let create ~n_nodes ~n_techs ~edges =
  if n_nodes <= 0 then invalid_arg "Multigraph.create: n_nodes <= 0";
  if n_techs <= 0 then invalid_arg "Multigraph.create: n_techs <= 0";
  let n_edges = List.length edges in
  let links = Array.make (2 * n_edges) { id = 0; src = 0; dst = 0; tech = 0; peer = 0; edge = 0 } in
  let caps = Array.make (2 * n_edges) 0.0 in
  let out_of = Array.make n_nodes [] in
  let in_of = Array.make n_nodes [] in
  List.iteri
    (fun e (u, v, tech, cap) ->
      if u < 0 || u >= n_nodes || v < 0 || v >= n_nodes then
        invalid_arg "Multigraph.create: node id out of range";
      if u = v then invalid_arg "Multigraph.create: self-loop";
      if tech < 0 || tech >= n_techs then
        invalid_arg "Multigraph.create: technology index out of range";
      if not (Float.is_finite cap) || cap < 0.0 then
        invalid_arg "Multigraph.create: capacity must be finite and >= 0";
      let fwd = 2 * e and bwd = (2 * e) + 1 in
      links.(fwd) <- { id = fwd; src = u; dst = v; tech; peer = bwd; edge = e };
      links.(bwd) <- { id = bwd; src = v; dst = u; tech; peer = fwd; edge = e };
      caps.(fwd) <- cap;
      caps.(bwd) <- cap;
      out_of.(u) <- fwd :: out_of.(u);
      out_of.(v) <- bwd :: out_of.(v);
      in_of.(v) <- fwd :: in_of.(v);
      in_of.(u) <- bwd :: in_of.(u))
    edges;
  (* Keep adjacency lists in increasing link-id order for determinism. *)
  Array.iteri (fun i l -> out_of.(i) <- List.rev l) out_of;
  Array.iteri (fun i l -> in_of.(i) <- List.rev l) in_of;
  { n_nodes; n_techs; links; caps; out_of; in_of }

let check_id t l =
  if l < 0 || l >= Array.length t.links then
    invalid_arg "Multigraph: link id out of range"

let link t l =
  check_id t l;
  t.links.(l)

let links t = t.links

let capacity t l =
  check_id t l;
  t.caps.(l)

let capacities t = Array.copy t.caps

let d_of_capacity c = if c <= 0.0 then infinity else 1.0 /. c

let d t l = d_of_capacity (capacity t l)

let d_into t dst =
  if Array.length dst <> Array.length t.caps then
    invalid_arg "Multigraph.d_into: length mismatch";
  for l = 0 to Array.length t.caps - 1 do
    dst.(l) <- d_of_capacity t.caps.(l)
  done

let usable t l = capacity t l > 0.0

let out_links t u = t.out_of.(u)
let in_links t u = t.in_of.(u)

let out_links_tech t u k =
  List.filter (fun l -> t.links.(l).tech = k) t.out_of.(u)

let with_capacities t caps =
  if Array.length caps <> Array.length t.caps then
    invalid_arg "Multigraph.with_capacities: length mismatch";
  Array.iter
    (fun c ->
      if not (Float.is_finite c) || c < 0.0 then
        invalid_arg "Multigraph.with_capacities: capacity must be finite and >= 0")
    caps;
  { t with caps = Array.copy caps }

let scale_capacity t l f =
  check_id t l;
  if f < 0.0 then invalid_arg "Multigraph.scale_capacity: negative factor";
  let caps = Array.copy t.caps in
  caps.(l) <- caps.(l) *. f;
  { t with caps }

let find_links t ~src ~dst =
  List.filter (fun l -> t.links.(l).dst = dst) t.out_of.(src)

let pp_link t ppf l =
  let lk = link t l in
  Format.fprintf ppf "%d->%d tech%d#%d %.1fMbps" lk.src lk.dst lk.tech lk.id
    t.caps.(l)
