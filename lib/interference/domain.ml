(* The symmetric pairwise relation is one flat byte matrix: byte
   [l * n + l'] is '\001' when links [l] and [l'] interfere. *)
type t = {
  n : int;
  matrix : Bytes.t;
  domains : int list array;  (* I_l, sorted, includes l *)
}

let set matrix n l l' = Bytes.unsafe_set matrix ((l * n) + l') '\001'
let get matrix n l l' = Bytes.unsafe_get matrix ((l * n) + l') <> '\000'

let build_domains matrix n =
  Array.init n (fun l ->
      let acc = ref [] in
      for l' = n - 1 downto 0 do
        if get matrix n l l' then acc := l' :: !acc
      done;
      !acc)

(* Fill the matrix from [decide l l'], asked once per unordered pair
   [l < l']; self and peer pairs always interfere. *)
let of_decision g decide =
  let n = Multigraph.num_links g in
  let matrix = Bytes.make (n * n) '\000' in
  for l = 0 to n - 1 do
    set matrix n l l;
    set matrix n l (Multigraph.link g l).Multigraph.peer;
    for l' = l + 1 to n - 1 do
      if decide l l' then begin
        set matrix n l l';
        set matrix n l' l
      end
    done
  done;
  { n; matrix; domains = build_domains matrix n }

let create g ~interferes = of_decision g (fun l l' -> interferes l l' || interferes l' l)

(* The physical predicate is symmetric, so each pair is decided once.
   Endpoint distances come from a per-node-pair table of the same
   Geometry.distance calls, indexed [u * n_nodes + v]. *)
let standard ?(cs_factor = 1.5) g ~techs ~positions ~panels =
  let links = Multigraph.links g in
  let nn = Multigraph.n_nodes g in
  let dist = Array.make (nn * nn) 0.0 in
  for u = 0 to nn - 1 do
    for v = 0 to nn - 1 do
      dist.((u * nn) + v) <- Geometry.distance positions.(u) positions.(v)
    done
  done;
  let is_plc = Array.map Technology.is_plc techs in
  (* One collision domain per electrical panel (one coordinator) for
     PLC; carrier sensing within cs_factor x radius for WiFi. *)
  let cs_range = Array.map (fun tech -> cs_factor *. tech.Technology.conn_radius_m) techs in
  let decide l l' =
    let a = links.(l) and b = links.(l') in
    let open Multigraph in
    a.tech = b.tech
    &&
    if is_plc.(a.tech) then panels.(a.src) = panels.(b.src)
    else
      a.src = b.src || a.src = b.dst || a.dst = b.src || a.dst = b.dst
      || Float.min
           (Float.min dist.((a.src * nn) + b.src) dist.((a.src * nn) + b.dst))
           (Float.min dist.((a.dst * nn) + b.src) dist.((a.dst * nn) + b.dst))
         <= cs_range.(a.tech)
  in
  of_decision g decide

let of_instance inst scenario g =
  let nodes = inst.Builder.nodes in
  let positions = Array.map (fun nd -> nd.Builder.pos) nodes in
  let panels = Array.map (fun nd -> nd.Builder.panel) nodes in
  standard g ~techs:(Builder.techs scenario) ~positions ~panels

let single_domain_per_tech g =
  let interferes l l' =
    (Multigraph.link g l).Multigraph.tech = (Multigraph.link g l').Multigraph.tech
  in
  create g ~interferes

let interferes t l l' =
  if l < 0 || l >= t.n || l' < 0 || l' >= t.n then invalid_arg "index out of bounds";
  get t.matrix t.n l l'

let domain t l = t.domains.(l)

let num_links t = t.n

let graph_cliques t =
  let n = t.n in
  let neighbors v =
    let acc = ref [] in
    for u = n - 1 downto 0 do
      if u <> v && get t.matrix n v u then acc := u :: !acc
    done;
    !acc
  in
  Clique.bron_kerbosch ~n ~neighbors
