type t = {
  name : string;
  u : float -> float;
  u' : float -> float;
  u'_inv : float -> float;
  u'_into : float array -> float array -> unit;
}

(* [u'_into] repeats [u'] inline so a whole vector of marginals costs
   one call and no boxed floats; each element is the same expression
   as [u'], hence bit-identical. *)

let proportional_fair =
  {
    name = "log(1+x)";
    u = (fun x -> log (1.0 +. x));
    u' = (fun x -> 1.0 /. (1.0 +. x));
    u'_inv = (fun q -> if q <= 0.0 then infinity else Float.max 0.0 ((1.0 /. q) -. 1.0));
    u'_into =
      (fun src dst ->
        for i = 0 to Array.length src - 1 do
          dst.(i) <- 1.0 /. (1.0 +. src.(i))
        done);
  }

let weighted_proportional_fair ~weight =
  assert (weight > 0.0);
  {
    name = Printf.sprintf "%.2f*log(1+x)" weight;
    u = (fun x -> weight *. log (1.0 +. x));
    u' = (fun x -> weight /. (1.0 +. x));
    u'_inv =
      (fun q -> if q <= 0.0 then infinity else Float.max 0.0 ((weight /. q) -. 1.0));
    u'_into =
      (fun src dst ->
        for i = 0 to Array.length src - 1 do
          dst.(i) <- weight /. (1.0 +. src.(i))
        done);
  }

let alpha_fair ~alpha =
  if alpha <= 0.0 then invalid_arg "Utility.alpha_fair: alpha <= 0";
  if Float.abs (alpha -. 1.0) < 1e-9 then proportional_fair
  else
    {
      name = Printf.sprintf "alpha-fair(%.2f)" alpha;
      u = (fun x -> (((1.0 +. x) ** (1.0 -. alpha)) -. 1.0) /. (1.0 -. alpha));
      u' = (fun x -> (1.0 +. x) ** -.alpha);
      u'_inv =
        (fun q ->
          if q <= 0.0 then infinity
          else Float.max 0.0 ((q ** (-1.0 /. alpha)) -. 1.0));
      u'_into =
        (fun src dst ->
          for i = 0 to Array.length src - 1 do
            dst.(i) <- (1.0 +. src.(i)) ** -.alpha
          done);
    }

let total t rates = List.fold_left (fun acc x -> acc +. t.u x) 0.0 rates
