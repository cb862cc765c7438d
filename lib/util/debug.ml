let target =
  match Sys.getenv_opt "TT_DEBUG_BLOCK" with
  | Some s -> int_of_string_opt s
  | None -> None

let on ~key = match target with Some k -> k = key | None -> false

let log ~key fmt =
  Printf.ksprintf (fun msg -> if on ~key then prerr_endline msg) fmt
