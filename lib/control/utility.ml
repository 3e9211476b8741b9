let u x = log (1.0 +. x)
let u' x = 1.0 /. (1.0 +. x)
let u'_inv q = if q <= 0.0 then infinity else Float.max 0.0 ((1.0 /. q) -. 1.0)

(* [u'_into] repeats [u'] inline so a whole vector of marginals costs
   one call and no boxed floats; each element is the same expression
   as [u'], hence bit-identical. *)
let u'_into src dst =
  for i = 0 to Array.length src - 1 do
    dst.(i) <- 1.0 /. (1.0 +. src.(i))
  done
