(* The compiled search. States of the virtual interface graph are
   (node, incoming technology) pairs numbered [node * k1 + in_tech + 1],
   where "no incoming technology" (the flow source) is [in_tech = -1].

   The heap is a binary min-heap over parallel arrays keyed by
   (priority, push sequence), the order {!Pqueue} pops in; the
   priority of a pushed state is its [dist] at push time. A state is
   pushed only when its [dist] strictly drops, and every state is
   expanded at most once, so [1 + k1 * num_links] slots always
   suffice.

   A link or node is banned while its stamp equals [gen];
   [clear_bans] bumps [gen], which lifts every ban at once. *)
type t = {
  mutable g : Multigraph.t;
  csc : bool;
  k1 : int;
  links : Multigraph.link array;
  link_dst : int array;
  link_tech : int array;
  adj_start : int array;
  adj : int array;
  d : float array;
  w_ns : float array;
  dist : float array;
  via : int array;
  prev : int array;
  h_prio : float array;
  h_seq : int array;
  h_state : int array;
  mutable h_len : int;
  mutable h_next : int;
  link_ban : int array;
  node_ban : int array;
  mutable gen : int;
}

let refresh s g =
  if Multigraph.links g != s.links then
    invalid_arg "Dijkstra.refresh: not a capacity view of the compiled multigraph";
  s.g <- g;
  Multigraph.d_into g s.d;
  (* w_ns(u) = min d_l over u's usable out-links, as [min acc d]
     folded in increasing link id; unusable links carry d = infinity
     and so never lower it. *)
  for u = 0 to Array.length s.w_ns - 1 do
    let acc = ref infinity in
    for i = s.adj_start.(u) to s.adj_start.(u + 1) - 1 do
      let dl = s.d.(s.adj.(i)) in
      if not (!acc <= dl) then acc := dl
    done;
    s.w_ns.(u) <- !acc
  done

let compile ?(csc = true) g =
  let n = Multigraph.n_nodes g in
  let links = Multigraph.links g in
  let n_links = Array.length links in
  let k1 = Multigraph.n_techs g + 1 in
  let n_states = n * k1 in
  let adj_start = Array.make (n + 1) 0 in
  Array.iter
    (fun (lk : Multigraph.link) ->
      adj_start.(lk.src + 1) <- adj_start.(lk.src + 1) + 1)
    links;
  for u = 1 to n do
    adj_start.(u) <- adj_start.(u) + adj_start.(u - 1)
  done;
  (* Links are visited by id, so each node's slice is in increasing
     link-id order, the order Multigraph.out_links lists them in. *)
  let fill = Array.sub adj_start 0 n in
  let adj = Array.make n_links 0 in
  Array.iter
    (fun (lk : Multigraph.link) ->
      adj.(fill.(lk.src)) <- lk.id;
      fill.(lk.src) <- fill.(lk.src) + 1)
    links;
  let heap_cap = 1 + (k1 * n_links) in
  let s =
    {
      g;
      csc;
      k1;
      links;
      link_dst = Array.map (fun (lk : Multigraph.link) -> lk.dst) links;
      link_tech = Array.map (fun (lk : Multigraph.link) -> lk.tech) links;
      adj_start;
      adj;
      d = Array.make n_links infinity;
      w_ns = Array.make n infinity;
      dist = Array.make n_states infinity;
      via = Array.make n_states (-1);
      prev = Array.make n_states (-1);
      h_prio = Array.make heap_cap 0.0;
      h_seq = Array.make heap_cap 0;
      h_state = Array.make heap_cap 0;
      h_len = 0;
      h_next = 0;
      link_ban = Array.make n_links 0;
      node_ban = Array.make n 0;
      gen = 1;
    }
  in
  refresh s g;
  s

let graph s = s.g

let ban_link s l = s.link_ban.(l) <- s.gen
let ban_node s u = s.node_ban.(u) <- s.gen
let clear_bans s = s.gen <- s.gen + 1

let heap_lt s i j =
  s.h_prio.(i) < s.h_prio.(j)
  || (s.h_prio.(i) = s.h_prio.(j) && s.h_seq.(i) < s.h_seq.(j))

let heap_swap s i j =
  let p = s.h_prio.(i) in
  s.h_prio.(i) <- s.h_prio.(j);
  s.h_prio.(j) <- p;
  let q = s.h_seq.(i) in
  s.h_seq.(i) <- s.h_seq.(j);
  s.h_seq.(j) <- q;
  let st = s.h_state.(i) in
  s.h_state.(i) <- s.h_state.(j);
  s.h_state.(j) <- st

let rec sift_up s i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if heap_lt s i parent then begin
      heap_swap s i parent;
      sift_up s parent
    end
  end

let rec sift_down s i =
  let l = (2 * i) + 1 in
  let r = l + 1 in
  let m = if l < s.h_len && heap_lt s l i then l else i in
  let m = if r < s.h_len && heap_lt s r m then r else m in
  if m <> i then begin
    heap_swap s i m;
    sift_down s m
  end

(* Push state [st] keyed by its current [dist]. *)
let heap_push s st =
  let i = s.h_len in
  s.h_prio.(i) <- s.dist.(st);
  s.h_seq.(i) <- s.h_next;
  s.h_state.(i) <- st;
  s.h_next <- s.h_next + 1;
  s.h_len <- i + 1;
  sift_up s i

let heap_drop s =
  s.h_len <- s.h_len - 1;
  if s.h_len > 0 then begin
    s.h_prio.(0) <- s.h_prio.(s.h_len);
    s.h_seq.(0) <- s.h_seq.(s.h_len);
    s.h_state.(0) <- s.h_state.(s.h_len);
    sift_down s 0
  end

(* Relax the out-links of expanded state [su] = (u, in_tech). A state
   is expanded only when popped at its current [dist], so [dist.(su)]
   is the popped cost. *)
let relax s su u in_tech =
  let cost = s.dist.(su) in
  for i = s.adj_start.(u) to s.adj_start.(u + 1) - 1 do
    let l = s.adj.(i) in
    let v = s.link_dst.(l) in
    if s.link_ban.(l) <> s.gen && s.node_ban.(v) <> s.gen then begin
      let tech = s.link_tech.(l) in
      let csc = if s.csc && in_tech = tech then s.w_ns.(u) else 0.0 in
      let step = s.d.(l) +. csc in
      if Float.is_finite step then begin
        let nd = cost +. step in
        let sv = (v * s.k1) + tech + 1 in
        if nd < s.dist.(sv) then begin
          s.dist.(sv) <- nd;
          s.via.(sv) <- l;
          s.prev.(sv) <- su;
          heap_push s sv
        end
      end
    end
  done

(* The links of the recorded predecessor chain ending at [st]. *)
let rec back s st acc =
  let l = s.via.(st) in
  if l < 0 then acc else back s s.prev.(st) (l :: acc)

let search ?init_tech s ~src ~dst =
  if src = dst then invalid_arg "Dijkstra.search: src = dst";
  let k1 = s.k1 in
  Array.fill s.dist 0 (Array.length s.dist) infinity;
  s.h_len <- 0;
  let init_in = match init_tech with None -> -1 | Some t -> t in
  let s0 = (src * k1) + init_in + 1 in
  s.dist.(s0) <- 0.0;
  s.via.(s0) <- -1;
  heap_push s s0;
  let found = ref (-1) in
  while !found < 0 && s.h_len > 0 do
    let su = s.h_state.(0) in
    let cost = s.h_prio.(0) in
    heap_drop s;
    if not (cost > s.dist.(su)) then begin
      let u = su / k1 in
      if u = dst then found := su else relax s su u (su - (u * k1) - 1)
    end
  done;
  (* The predecessor chain is contiguous by construction. *)
  if !found < 0 then None else Some ({ Paths.links = back s !found [] }, s.dist.(!found))

let shortest_path ?csc ?init_tech g ~src ~dst =
  if src = dst then invalid_arg "Dijkstra.shortest_path: src = dst";
  search ?init_tech (compile ?csc g) ~src ~dst

(* The same left-to-right sum as a search, with the unusable-hop short
   cut. *)
let cost ?init_tech s links =
  let acc = ref 0.0 in
  let in_tech = ref (match init_tech with None -> -1 | Some t -> t) in
  let rest = ref links in
  while !rest != [] do
    match !rest with
    | [] -> ()
    | l :: tl ->
      let dl = s.d.(l) in
      if Float.is_finite dl then begin
        let tech = s.link_tech.(l) in
        let sw = if s.csc && !in_tech = tech then s.w_ns.(s.links.(l).src) else 0.0 in
        acc := !acc +. dl +. sw;
        in_tech := tech;
        rest := tl
      end
      else begin
        acc := infinity;
        rest := []
      end
  done;
  !acc

let path_cost ?csc ?init_tech g path = cost ?init_tech (compile ?csc g) path.Paths.links

let wns g u = (compile g).w_ns.(u)
