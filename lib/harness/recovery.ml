module Engine = Tt_sim.Engine
module Thread = Tt_sim.Thread
module Stats = Tt_util.Stats
module Addr = Tt_mem.Addr
module Reliable = Tt_net.Reliable
module Faults = Tt_net.Faults
module Liveness = Tt_net.Liveness
module Typhoon = Tt_typhoon.System
module Dirnnb = Tt_dirnnb.System
module Stache = Tt_stache.Stache
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
(* Protocol dispatch: the two machines' recovery entry points           *)
(* ------------------------------------------------------------------ *)

type proto = St of Typhoon.t * Stache.t | Dn of Dirnnb.t

let machines = [ "stache"; "dirnnb" ]

let make_machine ~machine ?reliability params =
  match machine with
  | "stache" ->
      let m, sys, st = Machine.typhoon_stache_full ?reliability params in
      (m, St (sys, st))
  | "dirnnb" ->
      let m, sys = Machine.dirnnb_full ?reliability params in
      (m, Dn sys)
  | other ->
      invalid_arg
        (Printf.sprintf "Recovery: unknown machine %S (expected %s)" other
           (String.concat "|" machines))

let proto_set_is_dead proto f =
  match proto with
  | St (_, st) -> Stache.set_is_dead st f
  | Dn sys -> Dirnnb.set_is_dead sys f

(* Dirty tracking for checkpoint validity.  Only CPU stores change a
   page's logical content; NP [forced] writes (fills, writeback arrivals)
   materialize already-tracked values, so they are ignored — a snapshot
   is only taken when home memory is authoritative ([snapshot_page]), so
   a pending writeback keeps the dirty bit set until it lands. *)
let proto_set_on_dirty proto mark =
  match proto with
  | St (sys, _) ->
      Typhoon.set_on_dirty sys
        (Some (fun ~node:_ ~vpage ~forced -> if not forced then mark ~vpage))
  | Dn sys -> Dirnnb.set_on_dirty sys (Some (fun ~vpage -> mark ~vpage))

let proto_noop_handler = function
  | St (_, st) -> Stache.noop_handler st
  | Dn _ -> Dirnnb.noop_handler

let proto_snapshot_page proto ~vpage =
  match proto with
  | St (_, st) -> Stache.snapshot_page st ~vpage
  | Dn sys -> Dirnnb.snapshot_page sys ~vpage

let proto_on_node_death proto ~dead ~new_home ~restore =
  match proto with
  | St (_, st) -> Stache.on_node_death st ~dead ~new_home ~restore
  | Dn sys -> Dirnnb.on_node_death sys ~dead ~new_home ~restore

let proto_on_node_rejoin proto ~node =
  match proto with
  | St (_, st) -> Stache.on_node_rejoin st ~node
  | Dn sys -> Dirnnb.on_node_rejoin sys ~node

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

let snapshot_epoch ck proto =
  let todo =
    List.sort compare (Inttbl.fold (fun v () acc -> v :: acc) ck.dirty [])
  in
  List.iter
    (fun vpage ->
      match proto_snapshot_page proto ~vpage with
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
  let reliability = Reliable.Flaky config in
  let m0, proto = make_machine ~machine ~reliability params in
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
  proto_set_on_dirty proto (fun ~vpage -> mark_dirty ck ~vpage);
  proto_set_is_dead proto (fun n -> Liveness.is_dead lv n);
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
        + Reliable.scrub_unacked net ~node:dead
            ~handler:(proto_noop_handler proto);
      let new_home = Liveness.lowest_live lv in
      proto_on_node_death proto ~dead ~new_home
        ~restore:(fun ~vpage -> restore ck ~vpage));
  (* Rejoin verdict: scrub the victim's own held pre-crash-era queues,
     replay the parked channels, drop its stale protocol bookkeeping,
     then release its frozen CPUs — in that order, so nothing the victim
     does on waking can race the repair. *)
  Liveness.set_on_alive lv (fun node ->
      scrubbed :=
        !scrubbed
        + Reliable.scrub_unacked net ~node ~handler:(proto_noop_handler proto);
      Reliable.on_peer_alive net ~node;
      proto_on_node_rejoin proto ~node;
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
  let rec guard ~node th =
    if declared_dead.(node) && not revived.(node) then begin
      Thread.await_unit th (fun wake -> frozen.(node) <- wake :: frozen.(node));
      Thread.set_clock th (max (Thread.clock th) (Engine.now engine));
      guard ~node th
    end
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
              Thread.await_unit th (fun wake ->
                  frozen.(node) <- wake :: frozen.(node));
              Thread.set_clock th (max (Thread.clock th) (Engine.now engine));
              guard ~node th
          | Some _ -> () (* past its rejoin, never declared dead *)
          | None ->
              Thread.await_unit th (fun wake ->
                  frozen.(node) <- wake :: frozen.(node));
              Thread.set_clock th (max (Thread.clock th) (Engine.now engine));
              guard ~node th)
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
      if point = Machine.Post_barrier && proc = 0 then snapshot_epoch ck proto);
  m.Machine.liveness <- Some (fun () -> Liveness.summary lv);
  { m; lv; ck; scrubbed; nprocs }

(* ------------------------------------------------------------------ *)
(* One grid cell: run, classify, roll back if needed                    *)
(* ------------------------------------------------------------------ *)

type exec_result = {
  label : string;
  cycles : int;  (** of the run whose results stand (re-execution if rolled back) *)
  outcome : outcome;
  detail : string option;  (** diagnosed abort reason behind a rollback *)
  deaths : int;
  revivals : int;
  scrubbed : int;
  epochs : int;
  cell_stats : Stats.t;  (** merged stats of the (possibly aborted) crash run *)
  failed : string option;
}

let total_msgs stats =
  Stats.get stats "msgs.request" + Stats.get stats "msgs.response"

let exec ~machine ~name ~size ~scale ~nodes ~config ~base ~base_msgs () =
  let params = { Params.default with Params.nodes } in
  let w = wire ~machine ~params ~config () in
  let app = Catalog.make ~name ~size ~scale ~nprocs:nodes in
  let watchdog =
    Watchdog.create
      ~max_cycles:((base.Run.cycles * 100) + 5_000_000)
      ~max_retransmits:((base_msgs * 10) + 100_000)
      ~max_stall:((base.Run.cycles * 10) + 1_000_000)
      ()
  in
  let engine = w.m.Machine.engine in
  (* the last proc to finish stops the liveness loops so the event queue
     can drain *)
  let finished = ref 0 in
  let body env =
    app.Catalog.body env;
    incr finished;
    if !finished = w.nprocs then Liveness.stop w.lv
  in
  let finish ~cycles ~outcome ~detail ~failed =
    {
      label = w.m.Machine.label;
      cycles;
      outcome;
      detail;
      deaths = Liveness.deaths w.lv;
      revivals = Liveness.revivals w.lv;
      scrubbed = !(w.scrubbed);
      epochs = w.ck.epochs;
      cell_stats = w.m.Machine.merged_stats ();
      failed;
    }
  in
  match
    let r = Run.spmd w.m ~name ~watchdog body in
    ignore
      (Run.spmd w.m ~name:(name ^ "-verify") ~check:false ~watchdog
         app.Catalog.verify);
    r
  with
  | r ->
      (* completed in place; the verify pass already matched the final
         data against the app's sequential oracle *)
      let outcome = if Liveness.deaths w.lv > 0 then Rehomed else Masked in
      finish ~cycles:r.Run.cycles ~outcome ~detail:None ~failed:None
  | exception e ->
      let reason =
        match e with
        | Faults.Unrecoverable msg -> "Unrecoverable: " ^ msg
        | Watchdog.Expired msg -> "Watchdog: " ^ msg
        | Run.Stuck msg -> "Stuck: " ^ msg
        | Reliable.Link_failed msg -> "Link_failed: " ^ msg
        | Reliable.Peer_dead msg -> "Peer_dead: " ^ msg
        | Tt_net.Overload.Overload msg -> "Overload: " ^ msg
        | Failure msg -> "Failure: " ^ msg
        | Invalid_argument msg -> "Invalid_argument: " ^ msg
        | e -> raise e
      in
      (* diagnosed abort: roll back — discard the damaged instance and
         re-execute from the last consistent cut (modeled as a clean
         re-execution; [depth] counts the checkpoint epochs of lost work,
         [added_cycles] the cycles the aborted attempt burned) *)
      let depth = w.ck.epochs in
      let added_cycles = Engine.now engine in
      (match
         let m2, _ = make_machine ~machine params in
         let app2 = Catalog.make ~name ~size ~scale ~nprocs:nodes in
         let r2 = Run.spmd m2 ~name app2.Catalog.body in
         ignore
           (Run.spmd m2 ~name:(name ^ "-verify") ~check:false
              app2.Catalog.verify);
         r2
       with
      | r2 ->
          finish ~cycles:r2.Run.cycles
            ~outcome:(Rolled_back { depth; added_cycles })
            ~detail:(Some reason) ~failed:None
      | exception e2 ->
          let msg =
            Printf.sprintf "%s; re-execution failed: %s" reason
              (Printexc.to_string e2)
          in
          finish ~cycles:0 ~outcome:(Unrecoverable msg) ~detail:(Some reason)
            ~failed:(Some msg))

(* ------------------------------------------------------------------ *)
(* The sweep                                                            *)
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

let run ?(apps = Catalog.names) ?(machine = "stache") ?(victims = [ 0; 3 ])
    ?(crash_fracs = [ 0.4 ]) ?(rejoins = [ Never; Quick; Late ])
    ?(seeds = [ 1 ]) ?(size = Catalog.Small) ?(scale = 0.25) ?(nodes = 8)
    ?(domains = 0) () =
  List.iter
    (fun v ->
      if v < 0 || v >= nodes then
        invalid_arg (Printf.sprintf "Recovery.run: victim %d of %d nodes" v nodes))
    victims;
  (* parallel unit is the app: each crash cell compares against its app's
     fault-free baseline, so the (baseline, grid) bundle stays together *)
  Tt_sim.Domains.map ~domains
    (fun name ->
      let params = { Params.default with Params.nodes } in
      let base, base_msgs, latency =
        let m, _ = make_machine ~machine params in
        let app = Catalog.make ~name ~size ~scale ~nprocs:nodes in
        let r = Run.spmd m ~name app.Catalog.body in
        ignore
          (Run.spmd m ~name:(name ^ "-verify") ~check:false app.Catalog.verify);
        (r, total_msgs r.Run.run_stats, Reliable.latency m.Machine.net)
      in
      (* detection lease with Liveness defaults: 4 missed periods of
         32 fabric latencies each *)
      let lease = 4 * (32 * latency) in
      List.concat_map
        (fun victim ->
          List.concat_map
            (fun frac ->
              List.concat_map
                (fun rj ->
                  List.map
                    (fun seed ->
                      let crash_at =
                        max 1
                          (int_of_float
                             (frac *. float_of_int base.Run.cycles))
                      in
                      let rejoin_at =
                        match rj with
                        | Never -> None
                        | Quick -> Some (crash_at + (lease / 2))
                        | Late -> Some (crash_at + (4 * lease))
                      in
                      let config =
                        Faults.uniform ~seed
                          ~crashes:
                            [ Faults.crash ?rejoin:rejoin_at ~victim
                                ~at:crash_at () ]
                          ()
                      in
                      let er =
                        exec ~machine ~name ~size ~scale ~nodes ~config ~base
                          ~base_msgs ()
                      in
                      {
                        app = name;
                        machine_label = er.label;
                        victim;
                        crash_at;
                        rejoin = rj;
                        seed;
                        base_cycles = base.Run.cycles;
                        cycles = er.cycles;
                        deaths = er.deaths;
                        revivals = er.revivals;
                        scrubbed = er.scrubbed;
                        epochs = er.epochs;
                        pages_rehomed =
                          Stats.get er.cell_stats "recovery.pages_rehomed";
                        blocks_restored =
                          Stats.get er.cell_stats "recovery.blocks_restored";
                        outcome = er.outcome;
                        detail = er.detail;
                        failed = er.failed;
                      })
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
          (if p.cycles = 0 then "-"
           else
             Printf.sprintf "%.2f"
               (float_of_int p.cycles /. float_of_int p.base_cycles));
          string_of_int p.deaths; string_of_int p.revivals;
          string_of_int p.scrubbed; string_of_int p.epochs;
          string_of_int p.pages_rehomed; string_of_int p.blocks_restored;
          (let truncate s =
             if String.length s <= 48 then s else String.sub s 0 45 ^ "..."
           in
           match p.failed with
          | Some msg -> "FAIL: " ^ truncate msg
          | None -> (
              outcome_label p.outcome
              ^
              match p.detail with
              | Some d -> " [" ^ truncate d ^ "]"
              | None -> "")) ])
    points;
  Tt_util.Tablefmt.render t
