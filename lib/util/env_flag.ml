let of_value = function None | Some "" | Some "0" -> false | Some _ -> true
let enabled name = of_value (Sys.getenv_opt name)
