let reference_kernel_s = 1.0e-3
let period = 0.25
let table_size = 1 lsl 21
let dense_size = 1 lsl 15

let tables =
  lazy
    ( Bigarray.Array1.init Bigarray.float64 Bigarray.c_layout table_size (fun i ->
          float_of_int (i land 255)),
      Bigarray.Array1.init Bigarray.float64 Bigarray.c_layout dense_size (fun i ->
          float_of_int (i land 15)) )

(* Half random reads over 16 MB (memory-bound, like the allocation-heavy
   fluid and engine code), half a dense sweep over 256 KB (compute-bound,
   like the simplex), plus a little allocation. *)
let kernel () =
  let table, dense = Lazy.force tables in
  let s = ref 0.0 and j = ref 12345 in
  for r = 1 to 20_000 do
    j := ((!j * 1103515245) + 12345) land (table_size - 1);
    s := !s +. Bigarray.Array1.unsafe_get table !j;
    if r land 63 = 0 then ignore (Sys.opaque_identity (List.init 16 (fun i -> i * r)))
  done;
  for r = 1 to 6 do
    for i = 0 to dense_size - 1 do
      s := !s +. (Bigarray.Array1.unsafe_get dense i *. float_of_int r)
    done
  done;
  ignore (Sys.opaque_identity !s)

type measurement = { raw_s : float; scaled_s : float; samples : int }

let scale samples =
  let rec go raw scaled = function
    | (_, prev_end, prev_k) :: ((next_start, _, next_k) :: _ as rest) ->
      let net = next_start -. prev_end in
      go (raw +. net) (scaled +. (net *. reference_kernel_s /. ((prev_k +. next_k) /. 2.0))) rest
    | [ _ ] | [] -> (raw, scaled)
  in
  go 0.0 0.0 samples

let measure f =
  let samples = ref [] in
  let sample () =
    let t0 = Unix.gettimeofday () in
    kernel ();
    let t1 = Unix.gettimeofday () in
    samples := (t0, t1, t1 -. t0) :: !samples
  in
  ignore (Lazy.force tables);
  sample ();
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> sample ())) in
  let timer it_value = { Unix.it_interval = it_value; it_value } in
  ignore (Unix.setitimer Unix.ITIMER_REAL (timer period));
  let result =
    Fun.protect
      ~finally:(fun () ->
        ignore (Unix.setitimer Unix.ITIMER_REAL (timer 0.0));
        Sys.set_signal Sys.sigalrm previous)
      f
  in
  sample ();
  let ordered = List.rev !samples in
  let raw_s, scaled_s = scale ordered in
  (result, { raw_s; scaled_s; samples = List.length ordered })
