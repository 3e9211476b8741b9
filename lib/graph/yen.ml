module Path_set = Set.Make (struct
  type t = int list

  let compare = Stdlib.compare
end)

(* The hop of [pl] at index [i] when its first [i] hops are
   [root.(0 .. i-1)], else -1. *)
let rec spur_hop root i j pl =
  match pl with
  | [] -> -1
  | l :: rest ->
    if j = i then l else if l = root.(j) then spur_hop root i (j + 1) rest else -1

(* [root.(0 .. i-1)] prepended to [tail]. *)
let rec prepend_root root i tail =
  if i = 0 then tail else prepend_root root (i - 1) (root.(i - 1) :: tail)

(* [Paths.is_loopless] with a stamped node-mark array instead of a
   hash table: [stamp] must not occur in [mark] yet. *)
let rec unvisited g mark stamp = function
  | [] -> true
  | l :: rest ->
    let v = (Multigraph.link g l).Multigraph.dst in
    mark.(v) <> stamp
    && begin
      mark.(v) <- stamp;
      unvisited g mark stamp rest
    end

let loopless g mark stamp links =
  match links with
  | [] -> true
  | l :: _ ->
    mark.((Multigraph.link g l).Multigraph.src) <- stamp;
    unvisited g mark stamp links

let search s ~src ~dst ~k =
  if k < 1 then invalid_arg "Yen.search: k < 1";
  if src = dst then invalid_arg "Yen.search: src = dst";
  Dijkstra.clear_bans s;
  match Dijkstra.search s ~src ~dst with
  | None -> []
  | Some first ->
    let g = Dijkstra.graph s in
    let accepted = ref [ first ] in
    let seen = ref (Path_set.singleton (fst first).Paths.links) in
    (* Candidate paths found so far but not yet accepted. *)
    let candidates = Pqueue.create () in
    let mark = Array.make (Multigraph.n_nodes g) 0 in
    let stamp = ref 0 in
    let add_candidate p c =
      incr stamp;
      if (not (Path_set.mem p.Paths.links !seen)) && loopless g mark !stamp p.Paths.links
      then begin
        seen := Path_set.add p.Paths.links !seen;
        Pqueue.push candidates c p
      end
    in
    let expand (prev_path, _) =
      let links = Array.of_list prev_path.Paths.links in
      let nodes = Array.of_list (Paths.nodes g prev_path) in
      for i = 0 to Array.length links - 1 do
        (* Bans for this spur only: the i-th hop of every accepted path
           sharing the root prefix, and the root path's nodes before
           the spur node (which keeps candidates loopless). *)
        Dijkstra.clear_bans s;
        List.iter
          (fun (p, _) ->
            let l = spur_hop links i 0 p.Paths.links in
            if l >= 0 then Dijkstra.ban_link s l)
          !accepted;
        for j = 0 to i - 1 do
          Dijkstra.ban_node s nodes.(j)
        done;
        let init_tech =
          if i = 0 then None else Some (Multigraph.link g links.(i - 1)).Multigraph.tech
        in
        match Dijkstra.search ?init_tech s ~src:nodes.(i) ~dst with
        | None -> ()
        | Some (spur_path, _) ->
          let total_links = prepend_root links i spur_path.Paths.links in
          let p = Paths.of_links g total_links in
          let cost = Dijkstra.cost s total_links in
          if Float.is_finite cost then add_candidate p cost
      done;
      Dijkstra.clear_bans s
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

let k_shortest ?csc g ~src ~dst ~k =
  if k < 1 then invalid_arg "Yen.k_shortest: k < 1";
  if src = dst then invalid_arg "Yen.k_shortest: src = dst";
  search (Dijkstra.compile ?csc g) ~src ~dst ~k
