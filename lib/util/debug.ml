let target =
  match Sys.getenv_opt "TT_DEBUG_BLOCK" with
  | Some s -> int_of_string_opt s
  | None -> None

let on ~key = match target with Some k -> k = key | None -> false

let log ~key fmt =
  Printf.ksprintf (fun msg -> if on ~key then prerr_endline msg) fmt

let pool_debug_flag =
  ref
    (match Sys.getenv_opt "TT_POOL_DEBUG" with
    | Some ("1" | "true") -> true
    | Some _ | None -> false)

let set_pool_debug b = pool_debug_flag := b

let pool_debug () = !pool_debug_flag
