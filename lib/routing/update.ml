(* A path's hops with their d_l, read once per call: every R(l,P) and
   r(l,P) below sums over them in path order. *)
type hops = { ids : int array; ds : float array }

let hops g path =
  let ids = Array.of_list path.Paths.links in
  { ids; ds = Array.map (Multigraph.d g) ids }

(* Σ_{l' ∈ I_l ∩ P} d_l' : the airtime-per-bit that path traffic costs
   link l's collision domain. *)
let domain_path_weight dom h l =
  let acc = ref 0.0 in
  for j = 0 to Array.length h.ids - 1 do
    if Domain.interferes dom l h.ids.(j) then acc := !acc +. h.ds.(j)
  done;
  !acc

let hop_rate dom h l =
  let w = domain_path_weight dom h l in
  if Float.is_finite w && w > 0.0 then 1.0 /. w else 0.0

let hops_rate dom h =
  Array.fold_left (fun acc l -> Float.min acc (hop_rate dom h l)) infinity h.ids

(* r(l,P) given R(P) = [r]. *)
let idle dom h r l =
  if r <= 0.0 then 1.0
  else begin
    let consumed = r *. domain_path_weight dom h l in
    Float.max 0.0 (Float.min 1.0 (1.0 -. consumed))
  end

let rate_on_link g dom path l = hop_rate dom (hops g path) l

let path_rate g dom path = hops_rate dom (hops g path)

let idle_fraction g dom path l =
  let h = hops g path in
  idle dom h (hops_rate dom h) l

let update g dom path =
  let h = hops g path in
  let r = hops_rate dom h in
  let caps = Multigraph.capacities g in
  let touched = Array.make (Array.length caps) false in
  Array.iter
    (fun l ->
      List.iter
        (fun l' ->
          if not touched.(l') then begin
            touched.(l') <- true;
            caps.(l') <- caps.(l') *. idle dom h r l'
          end)
        (Domain.domain dom l))
    h.ids;
  Multigraph.with_capacities g caps
