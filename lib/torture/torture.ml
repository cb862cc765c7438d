module Engine = Tt_sim.Engine
module Prng = Tt_util.Prng
module Faults = Tt_net.Faults
module Reliable = Tt_net.Reliable
module Machine = Tt_harness.Machine
module Run = Tt_harness.Run
module Watchdog = Tt_harness.Watchdog
module Faultsweep = Tt_harness.Faultsweep
module Env = Tt_app.Env
module Stache = Tt_stache.Stache
module Addr = Tt_mem.Addr
module Inttbl = Tt_util.Inttbl

type case = {
  litmus : string;
  machine : string;
  drop : float;  (* 0.0 = Perfect transport, no injector *)
  fault_seed : int;
  perturb_rate : float;  (* 0.0 = tie-break hook not installed *)
  perturb_seed : int;
  iters : int;
  sabotage : bool;
}

type kind = Sc | Stale | Hang | Link | Invariant | Crash

type violation = { kind : kind; iter : int; detail : string }

type outcome = Pass | Fail of violation

type result = {
  outcome : outcome;
  cycles : int;
  perturb_sites : int;
  fault_sites : int;
  trace : Trace.t;
}

type mode =
  | Generate
  | Masked of { perturb_keep : int list; fault_keep : int list }
  | Replay of Trace.t

(* the default grid; every other catalogue machine but "update" can also
   be tortured *)
let machines = [ "stache"; "dirnnb" ]

let kind_to_string = function
  | Sc -> "sc"
  | Stale -> "stale"
  | Hang -> "hang"
  | Link -> "link"
  | Invariant -> "invariant"
  | Crash -> "crash"

let kind_of_string = function
  | "sc" -> Sc
  | "stale" -> Stale
  | "hang" -> Hang
  | "link" -> Link
  | "invariant" -> Invariant
  | "crash" -> Crash
  | s -> invalid_arg (Printf.sprintf "Torture: unknown violation kind %S" s)

(* Natural tie-break salt: a pure function of (seed, site), so a masked or
   journal-replayed run never shifts any other site's salt — unlike a
   sequential stream, site i's value is independent of how sites < i were
   treated.  Each site gets its own single-use splitmix stream. *)
let natural_salt ~seed ~rate site =
  let p = Prng.create ~seed:(seed lxor (site * 0x2545F4914F6CDD1)) in
  if Prng.chance p rate then 1 + Prng.int p 255 else 0

let membership sites =
  let tbl = Inttbl.create (List.length sites * 2) in
  List.iter (fun s -> Inttbl.replace tbl s ()) sites;
  fun site -> Inttbl.mem tbl site

(* Per-iteration concrete value encoding.  Iteration [i] writes abstract
   value [v] as [(i+1)*16 + v] and resets locations to 0, so any concrete
   value other than 0 or the current iteration's band decodes to None: a
   copy that survived an invalidation from an earlier iteration is caught
   as soon as it is read, even when the stale value happens to produce an
   outcome vector SC would allow. *)
let base_of iter = (iter + 1) * 16

let decode ~base c =
  if c = 0 then Some 0
  else if c > base && c <= base + Litmus.max_value then Some (c - base)
  else None

let make_machine case params =
  let reliability =
    if case.drop > 0.0 then
      Some
        (Reliable.Flaky
           (Faultsweep.config_of ~drop:case.drop ~seed:case.fault_seed ()))
    else None
  in
  (* the hand-written EM3D protocol assumes owners-compute (only a value's
     home node writes it, and consumers sync once per step), which litmus
     shapes break by design *)
  if case.machine = "update" then
    invalid_arg "Torture: the update machine requires owners-compute";
  Machine.of_name ?reliability case.machine params

let run ?(mode = Generate) ?(tweak_params = fun p -> p) case =
  let lit = Litmus.by_name case.litmus in
  let params =
    tweak_params { Params.default with Params.nodes = lit.Litmus.nprocs }
  in
  let machine = make_machine case params in
  let trace = Trace.create () in
  (* tie-break perturbation: installed exactly when the case's rate is
     positive, in every mode, so neutral-salt packing is identical between
     a generate run, its masked shrinking probes, and a journal replay *)
  if case.perturb_rate > 0.0 then begin
    let salt_of =
      match mode with
      | Replay tr -> fun site -> Trace.salt tr ~site
      | Generate ->
          fun site ->
            natural_salt ~seed:case.perturb_seed ~rate:case.perturb_rate site
      | Masked { perturb_keep; _ } ->
          let keep = membership perturb_keep in
          fun site ->
            if keep site then
              natural_salt ~seed:case.perturb_seed ~rate:case.perturb_rate site
            else 0
    in
    Engine.set_tiebreak machine.Machine.engine
      (Some
         (fun site ->
           let s = salt_of site in
           Trace.add_salt trace ~site s;
           s))
  end;
  (match Reliable.faults machine.Machine.net with
  | None -> ()
  | Some f ->
      let decide =
        match mode with
        | Replay tr -> fun ~site _natural -> Trace.decision tr ~site
        | Generate -> fun ~site:_ natural -> natural
        | Masked { fault_keep; _ } ->
            let keep = membership fault_keep in
            fun ~site natural -> if keep site then natural else Faults.deliver
      in
      Faults.set_tap f
        (Some
           (fun ~site natural ->
             let d = decide ~site natural in
             Trace.add_decision trace ~site d;
             d)));
  (* observables, shared host-side between the per-processor closures *)
  let nprocs = lit.Litmus.nprocs
  and nlocs = lit.Litmus.nlocs
  and nregs = lit.Litmus.nregs in
  let addrs = Array.make nlocs 0 in
  let reg_obs = Array.init case.iters (fun _ -> Array.make (max nregs 1) 0) in
  let loc_obs = Array.init case.iters (fun _ -> Array.make nlocs 0) in
  let stales = ref [] in
  let completed = ref 0 in
  let stale ~iter ~what c =
    stales :=
      (iter,
       Printf.sprintf "stale value %d observed by %s at iteration %d" c what
         iter)
      :: !stales
  in
  let body (e : Env.t) =
    if e.Env.proc = 0 then
      for l = 0 to nlocs - 1 do
        addrs.(l) <- e.Env.alloc ~home:(l mod nprocs) Addr.page_size
      done;
    e.Env.barrier ();
    for iter = 0 to case.iters - 1 do
      let base = base_of iter in
      if e.Env.proc = 0 then
        for l = 0 to nlocs - 1 do
          e.Env.write_int addrs.(l) 0
        done;
      e.Env.barrier ();
      Array.iter
        (fun op ->
          e.Env.work 5;
          match op with
          | Litmus.Write { loc; v } -> e.Env.write_int addrs.(loc) (base + v)
          | Litmus.Read { loc; reg } -> (
              let c = e.Env.read_int addrs.(loc) in
              match decode ~base c with
              | Some a -> reg_obs.(iter).(reg) <- a
              | None ->
                  stale ~iter ~what:(Printf.sprintf "proc %d read" e.Env.proc)
                    c;
                  reg_obs.(iter).(reg) <- min_int)
          | Litmus.Incr { loc; reg } -> (
              let c = e.Env.read_int addrs.(loc) in
              match decode ~base c with
              | Some a ->
                  reg_obs.(iter).(reg) <- a;
                  e.Env.work 3;
                  e.Env.write_int addrs.(loc) (base + a + 1)
              | None ->
                  stale ~iter ~what:(Printf.sprintf "proc %d incr" e.Env.proc)
                    c;
                  reg_obs.(iter).(reg) <- min_int;
                  e.Env.work 3;
                  e.Env.write_int addrs.(loc) (base + Litmus.max_value))
          | Litmus.Lock l -> e.Env.lock l
          | Litmus.Unlock l -> e.Env.unlock l)
        lit.Litmus.progs.(e.Env.proc);
      e.Env.barrier ();
      if e.Env.proc = 0 then begin
        for l = 0 to nlocs - 1 do
          let c = e.Env.read_int addrs.(l) in
          match decode ~base c with
          | Some a -> loc_obs.(iter).(l) <- a
          | None ->
              stale ~iter ~what:"final state" c;
              loc_obs.(iter).(l) <- min_int
        done;
        completed := iter + 1
      end
    done
  in
  (* A violating observable beats whatever exception the run may have died
     with: the observables are hard evidence, recorded before the crash,
     and keying the shrinker on them keeps the violation kind stable while
     masking perturbs how the run ends. *)
  let check_outcomes () =
    let stale_at i =
      List.fold_left
        (fun acc (iter, d) -> if iter = i && acc = None then Some d else acc)
        None (List.rev !stales)
    in
    let rec scan i =
      if i >= case.iters then None
      else
        match stale_at i with
        | Some d -> Some { kind = Stale; iter = i; detail = d }
        | None ->
            if
              i < !completed
              && not
                   (Litmus.check lit
                      ~regs:(Array.sub reg_obs.(i) 0 nregs)
                      ~locs:loc_obs.(i))
            then
              Some
                {
                  kind = Sc;
                  iter = i;
                  detail =
                    Format.asprintf
                      "iteration %d observed %a: not one of the %d \
                       SC-allowed outcomes"
                      i Litmus.pp_obs
                      (Array.sub reg_obs.(i) 0 nregs, loc_obs.(i))
                      (Litmus.allowed_count lit);
                }
            else scan (i + 1)
    in
    scan 0
  in
  let watchdog =
    Watchdog.create
      ~max_cycles:(2_000_000 + (case.iters * 1_000_000))
      ~max_retransmits:200_000 ~max_stall:500_000 ()
  in
  let name = Printf.sprintf "torture-%s" lit.Litmus.name in
  let was_sabotaged = Stache.sabotage_enabled () in
  Stache.set_sabotage case.sabotage;
  let finish outcome cycles =
    {
      outcome;
      cycles;
      perturb_sites = Engine.tiebreak_sites machine.Machine.engine;
      fault_sites =
        (match Reliable.faults machine.Machine.net with
        | None -> 0
        | Some f -> Faults.sites f);
      trace;
    }
  in
  Fun.protect
    ~finally:(fun () -> Stache.set_sabotage was_sabotaged)
    (fun () ->
      match Run.spmd machine ~name ~check:false ~watchdog body with
      | r -> (
          match check_outcomes () with
          | Some v -> finish (Fail v) r.Run.cycles
          | None -> (
              match machine.Machine.check_invariants () with
              | Ok () -> finish Pass r.Run.cycles
              | Error msg ->
                  finish (Fail { kind = Invariant; iter = -1; detail = msg })
                    r.Run.cycles))
      | exception exn ->
          let from_exn kind msg =
            match check_outcomes () with
            | Some v -> finish (Fail v) 0
            | None -> finish (Fail { kind; iter = -1; detail = msg }) 0
          in
          (match exn with
          | Watchdog.Expired msg -> from_exn Hang msg
          | Run.Stuck msg -> from_exn Hang msg
          (* a full overflow buffer is the diagnosed form of the hang it
             prevents: classify with the wedged runs, not the crashes *)
          | Tt_net.Overload.Overload msg -> from_exn Hang msg
          | Reliable.Link_failed msg -> from_exn Link msg
          | Failure msg -> from_exn Crash msg
          | Invalid_argument msg -> from_exn Crash msg
          | exn -> raise exn))

(* --- grid --- *)

let default_drops = [ 0.0; 0.05 ]

let default_seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let grid ?(litmus = Litmus.names) ?(machines = machines)
    ?(drops = default_drops) ?(seeds = default_seeds) ?(iters = 4)
    ?(perturb_rate = 0.25) ?(sabotage = Stache.sabotage_enabled ()) () =
  List.concat_map
    (fun l ->
      List.concat_map
        (fun m ->
          List.concat_map
            (fun drop ->
              List.map
                (fun seed ->
                  {
                    litmus = l;
                    machine = m;
                    drop;
                    fault_seed = seed;
                    perturb_rate;
                    perturb_seed = 0x5EED + (7919 * seed);
                    iters;
                    sabotage;
                  })
                seeds)
            drops)
        machines)
    litmus

let run_grid ?(domains = 0) cases =
  (* every case builds its own machine and PRNGs; cases are independent,
     so the grid fans out over worker domains with identical results *)
  Tt_sim.Domains.map ~domains (fun c -> (c, run c)) cases

let failures results =
  List.filter (fun (_, r) -> r.outcome <> Pass) results

let render results =
  let t =
    Tt_util.Tablefmt.create
      ~title:
        "Torture grid: litmus outcomes vs the SC oracle under fault \
         injection and schedule perturbation"
      ~columns:
        [ ("litmus", Tt_util.Tablefmt.Left);
          ("machine", Tt_util.Tablefmt.Left);
          ("drop%", Tt_util.Tablefmt.Right);
          ("seed", Tt_util.Tablefmt.Right);
          ("iters", Tt_util.Tablefmt.Right);
          ("cycles", Tt_util.Tablefmt.Right);
          ("salted", Tt_util.Tablefmt.Right);
          ("faulted", Tt_util.Tablefmt.Right);
          ("result", Tt_util.Tablefmt.Left) ]
  in
  List.iter
    (fun (c, r) ->
      Tt_util.Tablefmt.add_row t
        [ c.litmus; c.machine;
          Printf.sprintf "%.1f" (100.0 *. c.drop);
          string_of_int c.fault_seed; string_of_int c.iters;
          string_of_int r.cycles;
          string_of_int (Trace.n_salts r.trace);
          string_of_int (Trace.n_decisions r.trace);
          (match r.outcome with
          | Pass -> "ok"
          | Fail v ->
              Printf.sprintf "FAIL[%s]: %s" (kind_to_string v.kind) v.detail)
        ])
    results;
  Tt_util.Tablefmt.render t

(* --- shrinking --- *)

type shrunk = {
  s_case : case;
  s_trace : Trace.t;
  s_violation : violation;
  s_perturb_before : int;  (* active sites before/after shrinking *)
  s_perturb_after : int;
  s_fault_before : int;
  s_fault_after : int;
  s_iters_before : int;
}

let shrink ?probe_budget case =
  let r0 = run case in
  match r0.outcome with
  | Pass -> Error "case does not fail; nothing to shrink"
  | Fail v0 ->
      let kind = v0.kind in
      let reproduces ~iters ~perturb_keep ~fault_keep =
        let c = { case with iters } in
        match (run ~mode:(Masked { perturb_keep; fault_keep }) c).outcome with
        | Fail v -> v.kind = kind
        | Pass -> false
      in
      let p0 = Trace.salt_sites r0.trace in
      let f0 = Trace.fault_sites r0.trace in
      let fmin =
        Shrink.ddmin ?probe_budget
          ~test:(fun keep ->
            reproduces ~iters:case.iters ~perturb_keep:p0 ~fault_keep:keep)
          f0
      in
      let pmin =
        Shrink.ddmin ?probe_budget
          ~test:(fun keep ->
            reproduces ~iters:case.iters ~perturb_keep:keep ~fault_keep:fmin)
          p0
      in
      (* Iterations execute as a simulation prefix — iteration k's events
         are all scheduled before any of iteration k+1's — so truncating
         the iteration count leaves every surviving site index intact and
         the keep-sets stay meaningful. *)
      let rec find_iters i =
        if i >= case.iters then case.iters
        else if reproduces ~iters:i ~perturb_keep:pmin ~fault_keep:fmin then i
        else find_iters (i + 1)
      in
      let iters = find_iters 1 in
      let case' = { case with iters } in
      let rf =
        run ~mode:(Masked { perturb_keep = pmin; fault_keep = fmin }) case'
      in
      (match rf.outcome with
      | Fail v when v.kind = kind ->
          Ok
            {
              s_case = case';
              s_trace = rf.trace;
              s_violation = v;
              s_perturb_before = List.length p0;
              s_perturb_after = Trace.n_salts rf.trace;
              s_fault_before = List.length f0;
              s_fault_after = Trace.n_decisions rf.trace;
              s_iters_before = case.iters;
            }
      | _ ->
          Error
            "shrunk reproducer diverged from the original violation \
             (nondeterministic case?)")

(* --- replay artifacts --- *)

let write_artifact path (s : shrunk) =
  let c = s.s_case in
  let oc = open_out path in
  let line fmt = Printf.ksprintf (fun l -> output_string oc (l ^ "\n")) fmt in
  line "tt-torture v1";
  line "litmus %s" c.litmus;
  line "machine %s" c.machine;
  line "drop %h" c.drop;
  line "fault-seed %d" c.fault_seed;
  line "perturb-rate %h" c.perturb_rate;
  line "perturb-seed %d" c.perturb_seed;
  line "iters %d" c.iters;
  line "sabotage %d" (if c.sabotage then 1 else 0);
  line "kind %s" (kind_to_string s.s_violation.kind);
  line "detail %s"
    (String.map (fun ch -> if ch = '\n' then ' ' else ch) s.s_violation.detail);
  List.iter (fun l -> output_string oc (l ^ "\n")) (Trace.to_lines s.s_trace);
  line "end";
  close_out oc

let read_artifact path =
  let ic = open_in path in
  let trace = Trace.create () in
  let case =
    ref
      {
        litmus = ""; machine = ""; drop = 0.0; fault_seed = 0;
        perturb_rate = 0.0; perturb_seed = 0; iters = 1; sabotage = false;
      }
  in
  let kind = ref None in
  let bad line = invalid_arg ("Torture.read_artifact: bad line: " ^ line) in
  (try
     let header = input_line ic in
     if String.trim header <> "tt-torture v1" then
       invalid_arg "Torture.read_artifact: not a tt-torture v1 file";
     let rec loop () =
       let l = input_line ic in
       let l' = String.trim l in
       if l' = "end" || l' = "" then (if l' <> "end" then loop ())
       else if Trace.parse_line trace l' then loop ()
       else begin
         (match String.index_opt l' ' ' with
         | None -> bad l
         | Some i ->
             let key = String.sub l' 0 i in
             let v = String.sub l' (i + 1) (String.length l' - i - 1) in
             (match key with
             | "litmus" -> case := { !case with litmus = v }
             | "machine" -> case := { !case with machine = v }
             | "drop" -> case := { !case with drop = float_of_string v }
             | "fault-seed" ->
                 case := { !case with fault_seed = int_of_string v }
             | "perturb-rate" ->
                 case := { !case with perturb_rate = float_of_string v }
             | "perturb-seed" ->
                 case := { !case with perturb_seed = int_of_string v }
             | "iters" -> case := { !case with iters = int_of_string v }
             | "sabotage" -> case := { !case with sabotage = v = "1" }
             | "kind" -> kind := Some (kind_of_string v)
             | "detail" -> ()
             | _ -> bad l));
         loop ()
       end
     in
     loop ()
   with End_of_file -> ());
  close_in ic;
  match !kind with
  | None -> invalid_arg "Torture.read_artifact: missing violation kind"
  | Some k -> (!case, trace, k)

let replay path =
  let case, trace, expected = read_artifact path in
  let r = run ~mode:(Replay trace) case in
  (case, expected, r)
