let of_output s = Digest.to_hex (Digest.string s)

type reference = (string * string, string) Hashtbl.t

let parse_reference text =
  let tbl = Hashtbl.create 256 in
  let rec go lineno = function
    | [] -> Ok tbl
    | line :: rest -> (
      match String.split_on_char ' ' (String.trim line) with
      | [ "" ] -> go (lineno + 1) rest
      | [ workload; key; hex ] when String.length hex = 32 ->
        Hashtbl.replace tbl (workload, key) hex;
        go (lineno + 1) rest
      | _ -> Error (Printf.sprintf "reference line %d: expected <workload> <key> <md5>" lineno))
  in
  go 1 (String.split_on_char '\n' text)

let render_reference entries =
  String.concat ""
    (List.map (fun (w, k, hex) -> Printf.sprintf "%s %s %s\n" w k hex) entries)

let mismatches reference ~workload outputs =
  List.filter_map
    (fun (key, out) ->
      match Hashtbl.find_opt reference (workload, key) with
      | Some hex when hex = of_output out -> None
      | Some _ | None -> Some key)
    outputs
