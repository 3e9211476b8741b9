type frame = {
  name : string;
  t0 : float;
  w0 : float;
  mutable child_s : float;
  mutable child_w : float;
}

type acc = {
  mutable calls : int;
  mutable total_s : float;
  mutable self_s : float;
  mutable self_words : float;
}

type t = {
  mutable stack : frame list;
  accs : (string, acc) Hashtbl.t;
  counts : (string, float) Hashtbl.t;
}

let create () = { stack = []; accs = Hashtbl.create 16; counts = Hashtbl.create 16 }

let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let acc t name =
  match Hashtbl.find_opt t.accs name with
  | Some a -> a
  | None ->
    let a = { calls = 0; total_s = 0.0; self_s = 0.0; self_words = 0.0 } in
    Hashtbl.replace t.accs name a;
    a

let close t fr =
  let dt = Unix.gettimeofday () -. fr.t0 and dw = words () -. fr.w0 in
  t.stack <- List.tl t.stack;
  (match t.stack with
  | parent :: _ ->
    parent.child_s <- parent.child_s +. dt;
    parent.child_w <- parent.child_w +. dw
  | [] -> ());
  let a = acc t fr.name in
  a.calls <- a.calls + 1;
  a.total_s <- a.total_s +. dt;
  a.self_s <- a.self_s +. (dt -. fr.child_s);
  a.self_words <- a.self_words +. (dw -. fr.child_w)

let span t name f =
  let fr = { name; t0 = Unix.gettimeofday (); w0 = words (); child_s = 0.0; child_w = 0.0 } in
  t.stack <- fr :: t.stack;
  match f () with
  | v ->
    close t fr;
    v
  | exception e ->
    close t fr;
    raise e

let count t name n =
  Hashtbl.replace t.counts name
    (n +. Option.value ~default:0.0 (Hashtbl.find_opt t.counts name))

let get t name = Hashtbl.find_opt t.accs name
let self_s t name = match get t name with Some a -> a.self_s | None -> 0.0
let total_s t name = match get t name with Some a -> a.total_s | None -> 0.0
let self_words t name = match get t name with Some a -> a.self_words | None -> 0.0
let calls t name = match get t name with Some a -> a.calls | None -> 0
let counted t name = Option.value ~default:0.0 (Hashtbl.find_opt t.counts name)
