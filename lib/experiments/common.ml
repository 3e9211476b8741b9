type topology = Residential | Enterprise

let topology_name = function
  | Residential -> "residential"
  | Enterprise -> "enterprise"

let generate topo rng =
  match topo with
  | Residential -> Residential.generate rng
  | Enterprise -> Enterprise.generate rng

let random_flow rng inst =
  let duals = Array.of_list (Builder.dual_nodes inst) in
  let n = Builder.node_count inst in
  let src = Rng.pick rng duals in
  let rec pick_dst () =
    let d = Rng.int rng n in
    if d = src then pick_dst () else d
  in
  (src, pick_dst ())

let random_flows rng inst ~n =
  let rec go acc k guard =
    if k = 0 || guard = 0 then List.rev acc
    else begin
      let s, d = random_flow rng inst in
      if List.exists (fun (s', _) -> s' = s) acc then go acc k (guard - 1)
      else go ((s, d) :: acc) (k - 1) guard
    end
  in
  go [] n 1000

let split_rngs master n =
  (* Explicit in-order loop: List.init's evaluation order is
     unspecified, and the split order IS the seeding contract — stream
     [i] must be the [i]-th split whether the replications then run
     sequentially or on a domain pool. *)
  if n < 0 then invalid_arg "Common.split_rngs: n must be >= 0";
  let rec go acc k = if k = 0 then List.rev acc else go (Rng.split master :: acc) (k - 1) in
  go [] n

let runs_scaled default =
  match Sys.getenv_opt "EMPOWER_RUNS" with
  | None -> default
  | Some s -> (
    match int_of_string_opt s with
    | Some target when target > 0 ->
      max 1 (default * target / 100)
    | Some _ | None -> default)

let percent f = Printf.sprintf "%.0f%%" (100.0 *. f)
