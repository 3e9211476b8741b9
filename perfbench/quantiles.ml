let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median = function
  | [] -> invalid_arg "Quantiles.median: empty"
  | xs ->
    let a = sorted xs in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's statistics.quantiles(data, n=4), default 'exclusive'
   method, transcribed with the same integer arithmetic and clamping so
   the quartiles printed here equal the ones a Python checker computes
   from the same values. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Quantiles.quartiles: need at least 2 values";
  let m = ld + 1 in
  let q i =
    let j = i * m / 4 in
    let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.0
  in
  (q 1, q 2, q 3)
