let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let all_chars ok s =
  let rec go i = i >= String.length s || (ok s.[i] && go (i + 1)) in
  go 0

let valid_metric s =
  let n = String.length s in
  n >= 1 && n <= 64 && is_alnum s.[0]
  && all_chars (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && all_chars
       (fun c -> is_alnum c || c = '_' || c = '/' || c = '%' || c = '.' || c = '-')
       s
