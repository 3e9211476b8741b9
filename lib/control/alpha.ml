(* [observe] runs on every engine ACK, so it must not allocate. Its
   per-sample floats live in an all-float record, which OCaml stores
   flat: assigning one of its fields is a plain store, where a float
   field of a mixed record boxes a fresh float on every write;
   [has_prev] replaces a [float option] for the same reason. [alpha]
   itself stays a boxed field of the mixed record: [current] then
   returns the stored box instead of boxing a copy on every call, and
   only a halving allocates. *)
type floats = {
  mutable prev : float;            (* last rate sample, once [has_prev] *)
  mutable prev_diff : float;       (* last non-zero increment *)
  mutable last_amplitude : float;  (* amplitude of the last swing *)
}

type t = {
  mutable alpha : float;
  mutable has_prev : bool;
  mutable oscillations : int;      (* consecutive non-decreasing swings *)
  f : floats;
}

let initial ~single_path ~longest_route_hops =
  let base = 0.02 in
  if longest_route_hops <= 1 then base *. 4.0
  else if single_path || longest_route_hops = 2 then base *. 2.0
  else base

let create ~single_path ~longest_route_hops =
  {
    alpha = initial ~single_path ~longest_route_hops;
    has_prev = false;
    oscillations = 0;
    f = { prev = 0.0; prev_diff = 0.0; last_amplitude = 0.0 };
  }

let current t = t.alpha

let observe t rates =
  (* The sample is the rates' sum, taken here rather than by the
     caller so no float crosses the call boxed. *)
  let sum = ref 0.0 in
  for i = 0 to Array.length rates - 1 do
    sum := !sum +. rates.(i)
  done;
  let rate = !sum in
  if not t.has_prev then begin
    t.has_prev <- true;
    t.f.prev <- rate
  end
  else begin
    let f = t.f in
    let diff = rate -. f.prev in
    f.prev <- rate;
    if Float.abs diff > 1e-9 then begin
      let sign_flip = f.prev_diff *. diff < 0.0 in
      if sign_flip then begin
        let amplitude = Float.abs diff in
        if amplitude >= f.last_amplitude -. 1e-12 then
          t.oscillations <- t.oscillations + 1
        else t.oscillations <- 0;
        f.last_amplitude <- amplitude;
        if t.oscillations >= 6 then begin
          t.alpha <- t.alpha /. 2.0;
          t.oscillations <- 0;
          f.last_amplitude <- 0.0
        end
      end;
      f.prev_diff <- diff
    end
  end
