type where = Cpu_fiber | Engine_event | Main

type t = {
  samples : int;
  interval_s : float;
  cpu_s : float;
  by_where : (where * int) list;
  event_entries : (string * int) list;
  self : (string * int) list;
  inclusive : (string * int) list;
  modules_self : (string * int) list;
  modules_inclusive : (string * int) list;
}

let max_depth = 512

let names bt =
  match Printexc.backtrace_slots bt with
  | None -> [||]
  | Some slots ->
      Array.map
        (fun s -> Option.value ~default:"?" (Printexc.Slot.name s))
        slots

let split_dunder s =
  let n = String.length s in
  let rec go start i acc =
    if i + 1 >= n then List.rev (String.sub s start (n - start) :: acc)
    else if s.[i] = '_' && s.[i + 1] = '_' then
      go (i + 2) (i + 2) (String.sub s start (i - start) :: acc)
    else go start (i + 1) acc
  in
  go 0 0 []

(* "Tt_sim__Engine.run.(fun)" is module "Tt_sim.Engine" and function
   "Tt_sim.Engine.run.(fun)"; the executable's "Dune__exe__" prefix is
   dropped. *)
let split_frame raw =
  let m, rest =
    match String.index_opt raw '.' with
    | Some i -> (String.sub raw 0 i, String.sub raw i (String.length raw - i))
    | None -> (raw, "")
  in
  let m =
    match split_dunder m with
    | "Dune" :: "exe" :: (_ :: _ as tl) -> String.concat "." tl
    | parts -> String.concat "." parts
  in
  (m, m ^ rest)

let own_module = "Tt_harness.Profile"

let engine_module = "Tt_sim.Engine"

let ranked tbl =
  List.sort
    (fun (a, x) (b, y) -> if x <> y then compare y x else compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let bump tbl k =
  Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let rec drop_while p = function x :: tl when p x -> drop_while p tl | l -> l

let summarize ~interval_s ~cpu_s ~caller stacks =
  let self = Hashtbl.create 64 and incl = Hashtbl.create 64 in
  let mself = Hashtbl.create 16 and mincl = Hashtbl.create 16 in
  let entries = Hashtbl.create 16 in
  let fiber = ref 0 and event = ref 0 and main = ref 0 in
  let nc = Array.length caller in
  List.iter
    (fun stack ->
      let n = Array.length stack in
      (* a main-stack sample ends with [caller]'s frames: drop them *)
      let on_main = n >= nc && Array.sub stack (n - nc) nc = caller in
      let stack = if on_main then Array.sub stack 0 (n - nc) else stack in
      let frames =
        List.filter
          (fun (m, _) -> m <> own_module)
          (List.map split_frame (Array.to_list stack))
      in
      let is_engine (m, _) = m = engine_module in
      let where =
        if List.exists is_engine frames then begin
          (* the event's entry: the frame just inside the outermost run of
             engine frames (engine calls made by the handler stay inside) *)
          (match
             drop_while is_engine
               (drop_while (fun f -> not (is_engine f)) (List.rev frames))
           with
          | (_, f) :: _ -> bump entries f
          | [] -> bump entries "(the engine itself)");
          event
        end
        else if on_main then main
        else fiber
      in
      incr where;
      (match frames with
      | (m, f) :: _ ->
          bump self f;
          bump mself m
      | [] ->
          bump self "(no frames)";
          bump mself "(no frames)");
      let seen = Hashtbl.create 32 in
      List.iter
        (fun (m, f) ->
          if not (Hashtbl.mem seen f) then begin
            Hashtbl.add seen f ();
            bump incl f
          end;
          if not (Hashtbl.mem seen m) then begin
            (* modules and functions never share a name: "M" vs "M.f" *)
            Hashtbl.add seen m ();
            bump mincl m
          end)
        frames)
    stacks;
  {
    samples = List.length stacks;
    interval_s;
    cpu_s;
    by_where = [ (Cpu_fiber, !fiber); (Engine_event, !event); (Main, !main) ];
    event_entries = ranked entries;
    self = ranked self;
    inclusive = ranked incl;
    modules_self = ranked mself;
    modules_inclusive = ranked mincl;
  }

let interval_s = 0.001

(* A wall-clock timer, not [ITIMER_PROF]: Linux checks a process CPU-time
   timer only on a scheduler tick that finds the process running, so on a
   loaded host most expiries are never noticed (1-3 signals per 100 ms of
   CPU time beside a busy simulator, against ~25 alone).  [ITIMER_REAL] is
   a high-resolution timer that expires whether or not the process runs;
   a signal raised while it is switched out is handled when it resumes. *)
let sample f =
  let stacks = ref [] in
  let caller = names (Printexc.get_callstack max_depth) in
  let handler _ = stacks := Printexc.get_callstack max_depth :: !stacks in
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle handler) in
  let set period =
    ignore
      (Unix.setitimer Unix.ITIMER_REAL
         { Unix.it_interval = period; it_value = period })
  in
  let stop () =
    set 0.0;
    Sys.set_signal Sys.sigalrm previous
  in
  let t0 = Sys.time () in
  set interval_s;
  (* no wrapper between here and [f]: main-stack samples end with
     exactly [caller]'s frames *)
  match f () with
  | exception e ->
      stop ();
      raise e
  | result ->
      stop ();
      let cpu_s = Sys.time () -. t0 in
      ( result,
        summarize ~interval_s ~cpu_s ~caller (List.rev_map names !stacks) )

let where_label = function
  | Cpu_fiber -> "on a CPU fiber"
  | Engine_event -> "in an engine event"
  | Main -> "elsewhere on the main stack"

let top = 20

let pp ppf t =
  let pct n =
    if t.samples = 0 then 0.0
    else 100.0 *. float_of_int n /. float_of_int t.samples
  in
  let rec take n = function
    | x :: tl when n > 0 -> x :: take (n - 1) tl
    | _ -> []
  in
  Format.fprintf ppf
    "profile: %d samples over %.2f s of CPU time (period %.3f ms of wall \
     time requested)@."
    t.samples t.cpu_s (t.interval_s *. 1000.0);
  List.iter
    (fun (w, n) ->
      Format.fprintf ppf "  %-28s %6.1f%%  (%d)@." (where_label w) (pct n) n)
    t.by_where;
  Format.fprintf ppf
    "(handlers run at poll points: self time of non-allocating code lands \
     on the next poll site; read the inclusive and module views first)@.";
  let section title rows =
    Format.fprintf ppf "@.%s@." title;
    List.iter
      (fun (name, n) -> Format.fprintf ppf "  %6.1f%%  %s@." (pct n) name)
      (take top rows)
  in
  section "engine events, by the event's entry function:" t.event_entries;
  section "inclusive (function anywhere on the stack):" t.inclusive;
  section "self (innermost frame):" t.self;
  Format.fprintf ppf "@.by module:       self   inclusive@.";
  List.iter
    (fun (m, n) ->
      let s = Option.value ~default:0 (List.assoc_opt m t.modules_self) in
      Format.fprintf ppf "  %6.1f%%  %6.1f%%  %s@." (pct s) (pct n) m)
    (take top t.modules_inclusive)
