type op =
  | Write of { loc : int; v : int }
  | Read of { loc : int; reg : int }
  | Incr of { loc : int; reg : int }
  | Lock of int
  | Unlock of int

type t = {
  name : string;
  doc : string;
  nprocs : int;
  nlocs : int;
  nregs : int;
  nlocks : int;
  progs : op array array;
  allowed : (int array, unit) Hashtbl.t;
}

let max_value = 15

(* Exhaustive SC interleaving enumeration: depth-first over every order of
   the per-processor op streams, mutating one (mem, regs, locks) state in
   place and undoing on backtrack.  [Lock l] is enabled only while [l] is
   free, which prunes lock-guarded sections to their serializations; [Incr]
   is a single atomic step, which is faithful *because* every shape guards
   it with a lock — an unguarded Incr would make the oracle blind to lost
   updates.  The shapes are tiny (≤ 6 ops total unlocked, ≤ 4 procs), so
   the worst case (IRIW: 6!/(2!2!) = 180 orders) is trivial. *)
let enumerate ~nprocs ~nlocs ~nregs ~nlocks progs =
  let tbl = Hashtbl.create 64 in
  let mem = Array.make (max nlocs 1) 0 in
  let regs = Array.make (max nregs 1) 0 in
  let locks = Array.make (max nlocks 1) (-1) in
  let pc = Array.make nprocs 0 in
  let total = Array.fold_left (fun n p -> n + Array.length p) 0 progs in
  let rec go remaining =
    if remaining = 0 then begin
      let obs = Array.append (Array.sub regs 0 nregs) (Array.sub mem 0 nlocs) in
      if not (Hashtbl.mem tbl obs) then Hashtbl.replace tbl obs ()
    end
    else
      for p = 0 to nprocs - 1 do
        if pc.(p) < Array.length progs.(p) then begin
          let step () =
            pc.(p) <- pc.(p) + 1;
            go (remaining - 1);
            pc.(p) <- pc.(p) - 1
          in
          match progs.(p).(pc.(p)) with
          | Write { loc; v } ->
              let old = mem.(loc) in
              mem.(loc) <- v;
              step ();
              mem.(loc) <- old
          | Read { loc; reg } ->
              let old = regs.(reg) in
              regs.(reg) <- mem.(loc);
              step ();
              regs.(reg) <- old
          | Incr { loc; reg } ->
              let oldr = regs.(reg) and oldm = mem.(loc) in
              regs.(reg) <- oldm;
              mem.(loc) <- oldm + 1;
              step ();
              mem.(loc) <- oldm;
              regs.(reg) <- oldr
          | Lock l ->
              if locks.(l) < 0 then begin
                locks.(l) <- p;
                step ();
                locks.(l) <- -1
              end
          | Unlock l ->
              let old = locks.(l) in
              locks.(l) <- -1;
              step ();
              locks.(l) <- old
        end
      done
  in
  go total;
  tbl

let make ~name ~doc ?(nlocks = 0) ~nlocs ~nregs progs =
  let progs = Array.of_list (List.map Array.of_list progs) in
  let nprocs = Array.length progs in
  Array.iter
    (Array.iter (function
      | Write { v; _ } when v < 1 || v > max_value ->
          invalid_arg "Litmus.make: write value out of the 1..15 encoding"
      | Incr _ when nprocs > max_value - 1 ->
          invalid_arg "Litmus.make: increment chain exceeds the encoding"
      | _ -> ()))
    progs;
  {
    name; doc; nprocs; nlocs; nregs; nlocks; progs;
    allowed = enumerate ~nprocs ~nlocs ~nregs ~nlocks progs;
  }

let allowed t = t.allowed

let allowed_count t = Hashtbl.length (allowed t)

let check t ~regs ~locs =
  if Array.length regs <> t.nregs || Array.length locs <> t.nlocs then
    invalid_arg "Litmus.check: observable arity mismatch";
  Hashtbl.mem (allowed t) (Array.append regs locs)

(* --- the classic shapes, in the 1..15 abstract-value alphabet --- *)

let sb =
  make ~name:"SB" ~doc:"store buffering: both readers seeing 0 is forbidden"
    ~nlocs:2 ~nregs:2
    [ [ Write { loc = 0; v = 1 }; Read { loc = 1; reg = 0 } ];
      [ Write { loc = 1; v = 1 }; Read { loc = 0; reg = 1 } ] ]

let mp =
  make ~name:"MP" ~doc:"message passing: flag set but payload stale forbidden"
    ~nlocs:2 ~nregs:2
    [ [ Write { loc = 0; v = 1 }; Write { loc = 1; v = 1 } ];
      [ Read { loc = 1; reg = 0 }; Read { loc = 0; reg = 1 } ] ]

let lb =
  make ~name:"LB" ~doc:"load buffering: both loads seeing the other's \
                        program-later store forbidden"
    ~nlocs:2 ~nregs:2
    [ [ Read { loc = 0; reg = 0 }; Write { loc = 1; v = 1 } ];
      [ Read { loc = 1; reg = 1 }; Write { loc = 0; v = 1 } ] ]

let corr =
  make ~name:"CoRR" ~doc:"read-read coherence: new then old value of one \
                          location forbidden"
    ~nlocs:1 ~nregs:2
    [ [ Write { loc = 0; v = 1 } ];
      [ Read { loc = 0; reg = 0 }; Read { loc = 0; reg = 1 } ] ]

let coww =
  make ~name:"CoWW" ~doc:"write-write coherence: final value must be a \
                          coherence-order maximum (never the overwritten 1)"
    ~nlocs:1 ~nregs:0
    [ [ Write { loc = 0; v = 1 }; Write { loc = 0; v = 2 } ];
      [ Write { loc = 0; v = 3 } ] ]

let iriw =
  make ~name:"IRIW" ~doc:"independent reads of independent writes: the two \
                          readers disagreeing on the write order is forbidden"
    ~nlocs:2 ~nregs:4
    [ [ Write { loc = 0; v = 1 } ];
      [ Write { loc = 1; v = 1 } ];
      [ Read { loc = 0; reg = 0 }; Read { loc = 1; reg = 1 } ];
      [ Read { loc = 1; reg = 2 }; Read { loc = 0; reg = 3 } ] ]

let lock_atomic =
  let prog p = [ Lock 0; Incr { loc = 0; reg = p }; Unlock 0 ] in
  make ~name:"LOCK" ~doc:"lock atomicity: counter increments under a lock \
                          must not lose updates (regs a permutation, final \
                          count = nprocs)"
    ~nlocks:1 ~nlocs:1 ~nregs:4
    [ prog 0; prog 1; prog 2; prog 3 ]

let all = [ sb; mp; lb; corr; coww; iriw; lock_atomic ]

let names = List.map (fun t -> t.name) all

let by_name name =
  match List.find_opt (fun t -> String.lowercase_ascii t.name
                                = String.lowercase_ascii name) all with
  | Some t -> t
  | None ->
      invalid_arg
        (Printf.sprintf "Litmus.by_name: unknown shape %S (expected %s)" name
           (String.concat "|" names))

let pp_obs ppf (regs, locs) =
  Format.fprintf ppf "regs=[%s] mem=[%s]"
    (String.concat ";" (List.map string_of_int (Array.to_list regs)))
    (String.concat ";" (List.map string_of_int (Array.to_list locs)))
