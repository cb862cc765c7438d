module Engine = Tt_sim.Engine
module Thread = Tt_sim.Thread
module Stats = Tt_util.Stats
module Addr = Tt_mem.Addr
module Reliable = Tt_net.Reliable
module Faults = Tt_net.Faults
module Liveness = Tt_net.Liveness
module Inttbl = Tt_util.Inttbl

type outcome =
  | Masked
  | Rehomed
  | Rolled_back of { depth : int; added_cycles : int }
  | Unrecoverable of string

let outcome_label = function
  | Masked -> "masked"
  | Rehomed -> "rehomed"
  | Rolled_back { depth; added_cycles } ->
      Printf.sprintf "rolled-back(ckpt %d, +%d cyc)" depth added_cycles
  | Unrecoverable msg -> "UNRECOVERABLE: " ^ msg

type rejoin = Never | Quick | Late

let rejoin_label = function
  | Never -> "never"
  | Quick -> "quick"
  | Late -> "late"

(* ------------------------------------------------------------------ *)
(* Entry points, diagnosis, and the fault-free baseline               *)
(* ------------------------------------------------------------------ *)

let entry_points machine (m : Machine.t) =
  match m.Machine.recovery with
  | Some rc -> rc
  | None ->
      invalid_arg
        (Printf.sprintf
           "machine %S has no crash-recovery entry points (recoverable: %s)"
           machine
           (String.concat ", " (Machine.recoverable ())))

let require machine =
  ignore
    (entry_points machine
       (Machine.of_name machine { Params.default with Params.nodes = 1 }))

let diagnose = function
  | Faults.Unrecoverable msg -> Some ("Unrecoverable: " ^ msg)
  | Watchdog.Expired msg -> Some ("Watchdog: " ^ msg)
  | Run.Stuck msg -> Some ("Stuck: " ^ msg)
  | Reliable.Link_failed msg -> Some ("Link_failed: " ^ msg)
  | Reliable.Peer_dead msg -> Some ("Peer_dead: " ^ msg)
  | Tt_net.Overload.Overload msg -> Some ("Overload: " ^ msg)
  | Failure msg -> Some ("Failure: " ^ msg)
  | Invalid_argument msg -> Some ("Invalid_argument: " ^ msg)
  | _ -> None

type baseline = { result : Run.result; msgs : int; lease : int }

let baseline ~machine ~name ~size ~scale ~nodes =
  let m = Machine.of_name machine { Params.default with Params.nodes } in
  let r = Run.verified m (Catalog.make ~name ~size ~scale ~nprocs:nodes) in
  let get = Stats.get r.Run.run_stats in
  {
    result = r;
    msgs = get "msgs.request" + get "msgs.response";
    (* detection lease with Liveness defaults: 4 missed periods of
       32 fabric latencies each *)
    lease = 4 * (32 * Reliable.latency m.Machine.net);
  }

let watchdog base =
  let cycles = base.result.Run.cycles in
  Watchdog.create
    ~max_cycles:((cycles * 100) + 5_000_000)
    ~max_retransmits:((base.msgs * 10) + 100_000)
    ~max_stall:((cycles * 10) + 1_000_000)
    ()

(* ------------------------------------------------------------------ *)
(* Barrier checkpoints                                                  *)
(* ------------------------------------------------------------------ *)

(* One snapshot per shared page, refreshed at barriers while the page's
   home copy is authoritative.  [dirty] is "content changed since the
   last good snapshot": set by every CPU store, cleared only when a new
   snapshot actually lands — so [restore] can hand out a snapshot exactly
   when it provably equals the page's current content, the only case
   where in-place re-homing of a lost page is sound. *)
type checkpoint = {
  pages : unit Inttbl.t;  (* every allocated shared vpage *)
  dirty : unit Inttbl.t;
  snaps : Bytes.t Inttbl.t;
  mutable epochs : int;  (* completed barrier checkpoint points *)
}

let checkpoint_create () =
  {
    pages = Inttbl.create 256;
    dirty = Inttbl.create 256;
    snaps = Inttbl.create 256;
    epochs = 0;
  }

let mark_dirty ck ~vpage = Inttbl.replace ck.dirty vpage ()

let track_alloc ck ~vaddr ~bytes =
  if bytes > 0 then
    for vpage = Addr.page_of vaddr to Addr.page_of (vaddr + bytes - 1) do
      if not (Inttbl.mem ck.pages vpage) then begin
        Inttbl.replace ck.pages vpage ();
        (* allocation-time initialization happens before the first
           barrier; until a snapshot lands the page is unrestorable *)
        Inttbl.replace ck.dirty vpage ()
      end
    done

let snapshot_epoch ck (rc : Machine.recovery) =
  let todo =
    List.sort compare (Inttbl.fold (fun v () acc -> v :: acc) ck.dirty [])
  in
  List.iter
    (fun vpage ->
      match rc.snapshot_page ~vpage with
      | Some bytes ->
          Inttbl.replace ck.snaps vpage bytes;
          Inttbl.remove ck.dirty vpage
      | None -> () (* home copy stale (remote dirty): keep the dirty bit *))
    todo;
  ck.epochs <- ck.epochs + 1

let restore ck ~vpage =
  if Inttbl.mem ck.dirty vpage then None
  else Option.map Bytes.copy (Inttbl.find_opt ck.snaps vpage)

(* ------------------------------------------------------------------ *)
(* Wiring one machine instance for crash-stop runs                      *)
(* ------------------------------------------------------------------ *)

type wired = {
  m : Machine.t;  (* the guarded machine to run on *)
  lv : Liveness.t;
  ck : checkpoint;
  scrubbed : int ref;
  nprocs : int;
}

let wire ~machine ~params ~config () =
  let m0 =
    Machine.of_name ~reliability:(Reliable.Flaky config) machine params
  in
  let rc = entry_points machine m0 in
  let engine = m0.Machine.engine in
  let net = m0.Machine.net in
  let nprocs = params.Params.nodes in
  let faults =
    match Reliable.faults net with
    | Some f -> f
    | None -> invalid_arg "Recovery.wire: flaky transport without an injector"
  in
  let lv = Liveness.create engine net in
  let ck = checkpoint_create () in
  (* only CPU stores change a page's logical content; a snapshot is only
     taken when home memory is authoritative ([snapshot_page]), so a
     pending writeback keeps the dirty bit set until it lands *)
  rc.set_on_dirty (Some (fun ~vpage -> mark_dirty ck ~vpage));
  rc.set_is_dead (fun n -> Liveness.is_dead lv n);
  let declared_dead = Array.make nprocs false in
  let revived = Array.make nprocs false in
  let frozen = Array.make nprocs [] in
  let rejoin_scheduled = Array.make nprocs false in
  let scrubbed = ref 0 in
  let fire_frozen node =
    let wakes = frozen.(node) in
    frozen.(node) <- [];
    List.iter (fun wake -> wake ()) (List.rev wakes)
  in
  (* Death verdict: park and scrub the transport toward the victim, then
     repair the protocol synchronously (new home = deterministic lowest
     live rank; content losses answered by the checkpoint). *)
  Reliable.set_death_notice net (Some (fun ~src:_ ~dst:_ -> ()));
  Liveness.set_on_dead lv (fun dead ->
      declared_dead.(dead) <- true;
      Reliable.on_peer_death net ~node:dead;
      scrubbed :=
        !scrubbed
        + Reliable.scrub_unacked net ~node:dead ~handler:rc.noop_handler;
      let new_home = Liveness.lowest_live lv in
      rc.on_node_death ~dead ~new_home
        ~restore:(fun ~vpage -> restore ck ~vpage));
  (* Rejoin verdict: scrub the victim's own held pre-crash-era queues,
     replay the parked channels, drop its stale protocol bookkeeping,
     then release its frozen CPUs — in that order, so nothing the victim
     does on waking can race the repair. *)
  Liveness.set_on_alive lv (fun node ->
      scrubbed :=
        !scrubbed
        + Reliable.scrub_unacked net ~node ~handler:rc.noop_handler;
      Reliable.on_peer_alive net ~node;
      rc.on_node_rejoin ~node;
      revived.(node) <- true;
      fire_frozen node);
  (* Crash-era execution guard: a victim CPU that touches shared memory
     inside its crash window freezes.  If the death verdict fired, only
     the rejoin verdict (after scrub + replay + protocol repair) releases
     it; if the crash stayed under the detection lease, a plain timer at
     the physical rejoin cycle does — the access then resumes against
     untouched state and the transport's retransmissions mask the outage
     entirely.  A permanent crash parks forever and the watchdog converts
     the survivors' stall into a diagnosed abort. *)
  let rec freeze ~node th =
    Thread.await_unit th (fun wake -> frozen.(node) <- wake :: frozen.(node));
    Thread.set_clock th (max (Thread.clock th) (Engine.now engine));
    guard ~node th
  and guard ~node th =
    if declared_dead.(node) && not revived.(node) then freeze ~node th
    else
      match Faults.crash_window faults ~node with
      | Some (down, rejoin_at)
        when (not revived.(node)) && Thread.clock th >= down -> (
          match rejoin_at with
          | Some r when Thread.clock th < r ->
              if not rejoin_scheduled.(node) then begin
                rejoin_scheduled.(node) <- true;
                (* spurious-wake safe: woken threads re-check the guard *)
                Engine.at engine
                  (max r (Engine.now engine + 1))
                  (fun () -> fire_frozen node)
              end;
              freeze ~node th
          | Some _ -> () (* past its rejoin, never declared dead *)
          | None -> freeze ~node th)
      | _ -> ()
  in
  let m =
    {
      m0 with
      Machine.read = (fun ~node th a -> guard ~node th; m0.Machine.read ~node th a);
      write = (fun ~node th a v -> guard ~node th; m0.Machine.write ~node th a v);
      read_int = (fun ~node th a -> guard ~node th; m0.Machine.read_int ~node th a);
      write_int =
        (fun ~node th a v -> guard ~node th; m0.Machine.write_int ~node th a v);
      mprefetch =
        (fun ~node th va -> guard ~node th; m0.Machine.mprefetch ~node th va);
      alloc =
        (fun ~node th ?home bytes ->
          guard ~node th;
          let va = m0.Machine.alloc ~node th ?home bytes in
          track_alloc ck ~vaddr:va ~bytes;
          va);
    }
  in
  (* runs after any machine-level hook (the adaptive machine reclassifies
     pages there) *)
  Machine.add_sync m (fun point ~proc _ ->
      if point = Machine.Post_barrier && proc = 0 then snapshot_epoch ck rc);
  m.Machine.liveness <- Some (fun () -> Liveness.summary lv);
  { m; lv; ck; scrubbed; nprocs }

(* ------------------------------------------------------------------ *)
(* One crash cell: run, classify, roll back if needed                   *)
(* ------------------------------------------------------------------ *)

type point = {
  app : string;
  machine_label : string;
  victim : int;
  crash_at : int;
  rejoin : rejoin;
  seed : int;
  base_cycles : int;
  cycles : int;
  deaths : int;
  revivals : int;
  scrubbed : int;
  epochs : int;
  pages_rehomed : int;
  blocks_restored : int;
  outcome : outcome;
  detail : string option;
  failed : string option;
}

let cell ~machine ~name ~size ~scale ~nodes ~base ~victim ~frac ~rejoin ~seed
    ~faults =
  let crash_at =
    max 1 (int_of_float (frac *. float_of_int base.result.Run.cycles))
  in
  let rejoin_at =
    match rejoin with
    | Never -> None
    | Quick -> Some (crash_at + (base.lease / 2))
    | Late -> Some (crash_at + (4 * base.lease))
  in
  let config =
    faults ~seed [ Faults.crash ?rejoin:rejoin_at ~victim ~at:crash_at () ]
  in
  let params = { Params.default with Params.nodes } in
  let w = wire ~machine ~params ~config () in
  let app = Catalog.make ~name ~size ~scale ~nprocs:nodes in
  let watchdog = watchdog base in
  (* the last proc to finish stops the liveness loops so the event queue
     can drain *)
  let finished = ref 0 in
  let body env =
    app.Catalog.body env;
    incr finished;
    if !finished = w.nprocs then Liveness.stop w.lv
  in
  let finish ~cycles ~outcome ~detail =
    let stats = w.m.Machine.merged_stats () in
    ( {
        app = name;
        machine_label = w.m.Machine.label;
        victim;
        crash_at;
        rejoin;
        seed;
        base_cycles = base.result.Run.cycles;
        cycles;
        deaths = Liveness.deaths w.lv;
        revivals = Liveness.revivals w.lv;
        scrubbed = !(w.scrubbed);
        epochs = w.ck.epochs;
        pages_rehomed = Stats.get stats "recovery.pages_rehomed";
        blocks_restored = Stats.get stats "recovery.blocks_restored";
        outcome;
        detail;
        failed = None;
      },
      stats )
  in
  match Run.verified w.m ~watchdog { app with Catalog.body } with
  | r ->
      (* completed in place; the verify pass already matched the final
         data against the app's sequential oracle *)
      let outcome = if Liveness.deaths w.lv > 0 then Rehomed else Masked in
      finish ~cycles:r.Run.cycles ~outcome ~detail:None
  | exception e ->
      let reason = match diagnose e with Some d -> d | None -> raise e in
      (* diagnosed abort: roll back — discard the damaged instance and
         re-execute from the last consistent cut, modeled as a clean
         re-execution.  That run is deterministic and fault-free: it is the
         verified baseline, whose cycles stand.  [depth] counts the
         checkpoint epochs of lost work, [added_cycles] the cycles the
         aborted attempt burned. *)
      let added_cycles = Engine.now w.m.Machine.engine in
      finish ~cycles:base.result.Run.cycles ~detail:(Some reason)
        ~outcome:(Rolled_back { depth = w.ck.epochs; added_cycles })

(* ------------------------------------------------------------------ *)
(* The sweep                                                            *)
(* ------------------------------------------------------------------ *)

let run ?(apps = Catalog.names) ?(machine = "stache") ?(victims = [ 0; 3 ])
    ?(crash_fracs = [ 0.4 ]) ?(rejoins = [ Never; Quick; Late ])
    ?(seeds = [ 1 ]) ?(size = Catalog.Small) ?(scale = 0.25) ?(nodes = 8)
    ?(domains = 0) () =
  require machine;
  List.iter
    (fun v ->
      if v < 0 || v >= nodes then
        invalid_arg (Printf.sprintf "Recovery.run: victim %d of %d nodes" v nodes))
    victims;
  List.iter
    (fun frac ->
      if not (frac > 0.0 && frac < 1.0) then
        invalid_arg
          (Printf.sprintf
             "Recovery.run: crash fraction %g of the baseline run is outside \
              (0, 1)"
             frac))
    crash_fracs;
  (* parallel unit is the app: each crash cell compares against its app's
     fault-free baseline, so the (baseline, grid) bundle stays together *)
  Tt_sim.Domains.map ~domains
    (fun name ->
      let base = baseline ~machine ~name ~size ~scale ~nodes in
      List.concat_map
        (fun victim ->
          List.concat_map
            (fun frac ->
              List.concat_map
                (fun rejoin ->
                  List.map
                    (fun seed ->
                      fst
                        (cell ~machine ~name ~size ~scale ~nodes ~base ~victim
                           ~frac ~rejoin ~seed ~faults:(fun ~seed crashes ->
                             Faults.uniform ~seed ~crashes ())))
                    seeds)
                rejoins)
            crash_fracs)
        victims)
    apps
  |> List.concat

let all_passed points = List.for_all (fun p -> p.failed = None) points

let render points =
  let t =
    Tt_util.Tablefmt.create
      ~title:
        "Crash-stop recovery sweep: Fig. 3 apps with a crashing node \
         (results verified against the fault-free oracle)"
      ~columns:
        [ ("app", Tt_util.Tablefmt.Left);
          ("machine", Tt_util.Tablefmt.Left);
          ("victim", Tt_util.Tablefmt.Right);
          ("crash@", Tt_util.Tablefmt.Right);
          ("rejoin", Tt_util.Tablefmt.Left);
          ("seed", Tt_util.Tablefmt.Right);
          ("cycles", Tt_util.Tablefmt.Right);
          ("xbase", Tt_util.Tablefmt.Right);
          ("deaths", Tt_util.Tablefmt.Right);
          ("reviv", Tt_util.Tablefmt.Right);
          ("scrub", Tt_util.Tablefmt.Right);
          ("ckpts", Tt_util.Tablefmt.Right);
          ("rehomed", Tt_util.Tablefmt.Right);
          ("restored", Tt_util.Tablefmt.Right);
          ("outcome", Tt_util.Tablefmt.Left) ]
  in
  List.iter
    (fun p ->
      Tt_util.Tablefmt.add_row t
        [ p.app; p.machine_label; string_of_int p.victim;
          string_of_int p.crash_at; rejoin_label p.rejoin;
          string_of_int p.seed; string_of_int p.cycles;
          Printf.sprintf "%.2f"
            (float_of_int p.cycles /. float_of_int p.base_cycles);
          string_of_int p.deaths; string_of_int p.revivals;
          string_of_int p.scrubbed; string_of_int p.epochs;
          string_of_int p.pages_rehomed; string_of_int p.blocks_restored;
          (outcome_label p.outcome
          ^
          match p.detail with
          | Some d when String.length d <= 48 -> " [" ^ d ^ "]"
          | Some d -> " [" ^ String.sub d 0 45 ^ "...]"
          | None -> "") ])
    points;
  Tt_util.Tablefmt.render t
