(* perfbench: run one benchmark workload and print its metrics.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --workload NAME --pin     (reference digests, default seed)

   Run from the repository root (it reads scenarios/ and
   perfbench/reference.txt). The last line of stdout is the JSON
   result; see perfbench/README.md. *)

let workloads =
  [
    { Harness.name = "fig4-fluid"; setup = Fluid_wl.fig4_setup };
    { Harness.name = "fig7-optimum"; setup = Fluid_wl.fig7_setup };
    { Harness.name = "scenario-churn"; setup = Engine_wl.scenario_setup };
    { Harness.name = "loadsweep-tcp"; setup = Engine_wl.loadsweep_setup };
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME (--seed N --seconds S --trace 0|1 | --pin)";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and pin = ref false in
  let int_arg r s = match int_of_string_opt s with Some n -> r := Some n | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> int_arg seed v; parse rest
    | "--seconds" :: v :: rest -> int_arg seconds v; parse rest
    | "--trace" :: v :: rest -> int_arg trace v; parse rest
    | "--pin" :: rest -> pin := true; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w =
    match !workload with
    | None -> usage ()
    | Some n -> (
      match List.find_opt (fun w -> w.Harness.name = n) workloads with
      | Some w -> w
      | None ->
        Printf.eprintf "unknown workload %S; expected one of: %s\n" n
          (String.concat ", " (List.map (fun w -> w.Harness.name) workloads));
        exit 2)
  in
  if !pin then Harness.pin w
  else
    match (!seed, !seconds, !trace) with
    | Some seed, Some seconds, Some 0 when seconds >= 1 -> Harness.untraced w ~seed ~seconds
    | Some seed, Some _, Some 1 -> Harness.traced w ~seed
    | _ -> usage ()
