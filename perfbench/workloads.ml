(* The benchmark's three workloads, and one verified pass over a workload's
   cells.  Everything reaches the simulator through the harness's public
   entry points: [Catalog.make] (or the app generators at a held-out seed),
   the [Machine] constructors, [Run.spmd] and [Recovery.run]. *)

module Stats = Tt_util.Stats
module Engine = Tt_sim.Engine
module Catalog = Tt_harness.Catalog
module Machine = Tt_harness.Machine
module Run = Tt_harness.Run
module Recovery = Tt_harness.Recovery
module Np = Tt_typhoon.Np
module Cache = Tt_cache.Cache
module Tlb = Tt_mem.Tlb

(* At this seed every input equals the repo's defaults ([Params.default],
   the catalog's app seeds, fault seed 1) and the digests are pinned. *)
let default_seed = 1

type cell =
  | Plain of { app : string; machine : string; cache_kb : int }
      (** one oracle-verified run on a perfect transport *)
  | Lossy of { app : string }
      (** a clean Stache run, then the same app over a 5%-drop bursty
          fabric with credits squeezed to 2, budgeted from the clean run *)
  | Crash of { app : string; machine : string }
      (** a [Recovery.run] bundle: victim 3 at 40%, rejoin never, quick
          and late *)

type t = { name : string; scale : float; nodes : int; cells : cell list }

let names = [ "fig3_invalidate"; "zoo_update"; "lossy_recover" ]

let product xs ys f = List.concat_map (fun x -> List.map (f x) ys) xs

let make ?(tiny = false) name =
  let sized scale nodes = if tiny then (0.05, 8) else (scale, nodes) in
  match name with
  | "fig3_invalidate" ->
      let scale, nodes = sized 0.1 32 in
      let cells =
        product Catalog.names
          (product [ "dirnnb"; "stache" ] [ 4; 256 ] (fun m k -> (m, k)))
          (fun app (machine, cache_kb) -> Plain { app; machine; cache_kb })
      in
      { name; scale; nodes; cells }
  | "zoo_update" ->
      (* the hand-written EM3D [update] machine stays out, so retiring it
         does not remove a cell *)
      let scale, nodes = sized 0.1 16 in
      let cells =
        product
          [ "em3d"; "mp3d"; "synthpc"; "synthmig" ]
          Catalog.protocols
          (fun app machine -> Plain { app; machine; cache_kb = 256 })
      in
      { name; scale; nodes; cells }
  | "lossy_recover" ->
      (* em3d's crash bundles would take more than half the pass *)
      let scale, nodes, lossy, crashed =
        if tiny then (0.05, 4, [ "mp3d" ], [ "mp3d" ])
        else (0.1, 8, [ "mp3d"; "barnes"; "em3d" ], [ "mp3d"; "barnes" ])
      in
      let cells =
        List.map (fun app -> Lossy { app }) lossy
        @ product crashed [ "stache"; "dirnnb" ] (fun app machine ->
              Crash { app; machine })
      in
      { name; scale; nodes; cells }
  | other ->
      invalid_arg
        (Printf.sprintf "unknown workload %S (expected %s)" other
           (String.concat ", " names))

(* --- inputs from the seed --- *)

let params ~seed ~nodes ~cache_kb =
  Params.with_cache
    { Params.default with
      Params.nodes;
      seed = Params.default.Params.seed + seed - default_seed }
    (cache_kb * 1024)

(* [Catalog.make] at the default seed; elsewhere the same data sets with
   the generator seed shifted by the workload seed.  The synthetic apps
   keep the catalog's seeds: at shifted seeds 13 and 29 synthmig loses a
   locked increment under widerep and delayed respectively, a protocol
   bug that would make those cells fail on every run at that seed. *)
let make_app ~seed ~name ~scale ~nprocs =
  let catalog () = Catalog.make ~name ~size:Catalog.Small ~scale ~nprocs in
  let open Tt_app in
  let shift s = s + seed - default_seed in
  let sized base f = if scale = 1.0 then base else f base scale in
  let app body verify =
    { Catalog.app_name = name; body; verify; work_items = 0 }
  in
  match name with
  | _ when seed = default_seed -> catalog ()
  | "appbt" ->
      let c = sized Appbt.small Appbt.scale in
      let i = Appbt.make { c with seed = shift c.seed } ~nprocs in
      app i.Appbt.body i.Appbt.verify
  | "barnes" ->
      let c = sized Barnes.small Barnes.scale in
      let i = Barnes.make { c with seed = shift c.seed } ~nprocs in
      app i.Barnes.body i.Barnes.verify
  | "mp3d" ->
      let c = sized Mp3d.small Mp3d.scale in
      let i = Mp3d.make { c with seed = shift c.seed } ~nprocs in
      app i.Mp3d.body i.Mp3d.verify
  | "ocean" ->
      let c = sized Ocean.small Ocean.scale in
      let i = Ocean.make { c with seed = shift c.seed } ~nprocs in
      app i.Ocean.body i.Ocean.verify
  | "em3d" ->
      let c = sized Em3d.small Em3d.scale in
      let i = Em3d.make { c with seed = shift c.seed } ~nprocs in
      app i.Em3d.body i.Em3d.verify
  | _ -> catalog ()

(* --- machines with their observable hardware --- *)

type hw = {
  m : Machine.t;
  nps : Np.t array;  (** empty on DirNNB, which has no NP *)
  caches : Cache.t array;
  tlbs : Tlb.t array;  (** CPU TLBs; empty on DirNNB *)
}

let typhoon m sys =
  let module S = Tt_typhoon.System in
  let n = S.nnodes sys in
  {
    m;
    nps = Array.init n (S.node_np sys);
    caches = Array.init n (S.cpu_cache sys);
    tlbs = Array.init n (S.cpu_tlb sys);
  }

let build_machine ?reliability machine params =
  match machine with
  | "dirnnb" ->
      let m, sys = Machine.dirnnb_full ?reliability params in
      let n = Tt_dirnnb.System.nnodes sys in
      {
        m;
        nps = [||];
        caches = Array.init n (Tt_dirnnb.System.cpu_cache sys);
        tlbs = [||];
      }
  | "stache" ->
      let m, sys, _ = Machine.typhoon_stache_full ?reliability params in
      typhoon m sys
  | "adaptive" ->
      let m, sys, _, _, _ = Machine.typhoon_adaptive_full ?reliability params in
      typhoon m sys
  | proto ->
      let m, sys, _, _ =
        Machine.typhoon_zoo_full ?reliability
          ~policy:(Tt_custom.Proto.pol_of_name proto) params
      in
      typhoon m sys

(* --- one pass --- *)

type result = {
  id : string;
  digest : int list;
  failure : string option;
  ns : int;
      (** timed-phase host time; a Recovery bundle's sits on its first cell *)
  ref_ns : float;  (** [ns] at the reference host speed ({!Probe.host_speed}) *)
}

type pass = {
  traced : bool;
  mutable build_ns : int;
  mutable create_ns : int;
  mutable results : result list;  (** newest first *)
  stats : Stats.t;  (** per-layer counters summed over the cells *)
  mutable sim_cycles : int;
  mutable sim_msgs : int;
  mutable peak_queued : int;
  mutable wall_ns : int;
  mutable self_ns : int array;
  mutable ops : int;
  mutable syncs : int;
  mutable events : int;
  mutable minor_words : float;
  mutable major_collections : int;
  mutable speed : float;  (** host speed factor for the current cell *)
  mutable setup_ref_ns : float;  (** set-up at the reference host speed *)
  mutable yard_words : float;  (** minor words the yardstick allocated *)
}

let msgs stats =
  Stats.get stats "msgs.request" + Stats.get stats "msgs.response"

let record p ~pins ~ns id digest failure =
  let failure =
    match (failure, pins) with
    | Some _, _ | None, None -> failure
    | None, Some table -> (
        let show d = String.concat "," (List.map string_of_int d) in
        match List.assoc_opt id table with
        | Some pinned when pinned = digest -> None
        | Some pinned ->
            Some
              (Printf.sprintf "digest [%s] differs from pinned [%s]"
                 (show digest) (show pinned))
        | None -> Some "no pinned digest for this cell")
  in
  let ref_ns = float_of_int ns *. p.speed in
  p.results <- { id; digest; failure; ns; ref_ns } :: p.results

(* Clock a set-up step into [add], and into the pass's reference-speed
   set-up total. *)
let clock p add f =
  let t0 = Probe.now_ns () in
  Fun.protect f ~finally:(fun () ->
      let ns = Probe.now_ns () - t0 in
      add ns;
      p.setup_ref_ns <- p.setup_ref_ns +. (float_of_int ns *. p.speed))

let collect p hw (r : Run.result) =
  let st = p.stats in
  let add = Stats.add st in
  Stats.merge_into ~dst:st r.Run.run_stats;
  Array.iter
    (fun c ->
      add "cache.hits" (Cache.hits c);
      add "cache.misses" (Cache.misses c);
      add "cache.evictions"
        (Cache.evictions_shared c + Cache.evictions_exclusive c))
    hw.caches;
  Array.iter
    (fun t ->
      add "tlb.hits" (Tlb.hits t);
      add "tlb.misses" (Tlb.misses t))
    hw.tlbs;
  Array.iter
    (fun np ->
      add "np.handled" (Np.handled np);
      add "np.busy_cycles" (Np.busy_cycles np);
      add "np.span_cycles" r.Run.cycles;
      add "rtlb.hits" (Tlb.hits (Np.rtlb np));
      add "rtlb.misses" (Tlb.misses (Np.rtlb np)))
    hw.nps;
  p.peak_queued <-
    max p.peak_queued (Stats.get r.Run.run_stats "flow.peak_queued");
  p.sim_cycles <- p.sim_cycles + r.Run.cycles;
  p.sim_msgs <- p.sim_msgs + msgs r.Run.run_stats

(* Set up, simulate and verify one app on one machine.  Set-up is clocked
   apart from the timed phase. *)
let run_cell p ~pins ~seed ~id ~app ~scale ~nodes ~params ?reliability
    ?watchdog machine =
  let w0 = !Probe.wall_ns in
  match
    let inst =
      clock p
        (fun ns -> p.build_ns <- p.build_ns + ns)
        (fun () -> make_app ~seed ~name:app ~scale ~nprocs:nodes)
    in
    let hw =
      clock p
        (fun ns -> p.create_ns <- p.create_ns + ns)
        (fun () -> build_machine ?reliability machine params)
    in
    let m = hw.m in
    let r =
      Probe.timed Probe.Other (fun () ->
          if p.traced then
            Engine.set_trace m.Machine.engine (Some Probe.on_event);
          Fun.protect
            ~finally:(fun () -> Engine.set_trace m.Machine.engine None)
            (fun () ->
              Run.spmd m ~name:app ~check:false ?watchdog (fun env ->
                  inst.Catalog.body (Probe.wrap env))))
    in
    collect p hw r;
    Probe.timed Probe.Verify (fun () ->
        (match m.Machine.check_invariants () with
        | Ok () -> ()
        | Error msg -> failwith ("invariant violation: " ^ msg));
        ignore
          (Run.spmd m ~name:(app ^ "-verify") ~check:false ?watchdog
             inst.Catalog.verify));
    r
  with
  | r ->
      record p ~pins ~ns:(!Probe.wall_ns - w0) id
        [ r.Run.cycles; msgs r.Run.run_stats ]
        None;
      Some r
  | exception e ->
      record p ~pins ~ns:(!Probe.wall_ns - w0) id []
        (Some (Printexc.to_string e));
      None

let lossy p ~pins ~seed ~prefix ~scale ~nodes app =
  let params = params ~seed ~nodes ~cache_kb:256 in
  match
    run_cell p ~pins ~seed ~id:(prefix ^ "/clean") ~app ~scale ~nodes ~params
      "stache"
  with
  | None -> ()
  | Some base ->
      let cycles = base.Run.cycles and sent = msgs base.Run.run_stats in
      (* Faultsweep's budgets for the same cell *)
      let watchdog =
        Tt_harness.Watchdog.create
          ~max_cycles:((cycles * 100) + 5_000_000)
          ~max_retransmits:((sent * 10) + 100_000)
          ~max_stall:((cycles * 10) + 1_000_000)
          ()
      in
      let reliability =
        Tt_net.Reliable.Flaky
          (Tt_harness.Faultsweep.config_of
             ~burst:(Tt_net.Faults.bursty ~bad_scale:4.0 ())
             ~drop:0.05 ~seed ())
      in
      let params =
        { params with
          Params.flow_request_credits = 2;
          flow_response_credits = 2 }
      in
      ignore
        (run_cell p ~pins ~seed ~id:(prefix ^ "/lossy") ~app ~scale ~nodes
           ~params ~reliability ~watchdog "stache")

let crash p ~pins ~seed ~prefix ~scale ~nodes ~machine app =
  let w0 = !Probe.wall_ns in
  match
    Probe.timed Probe.Recovery (fun () ->
        Recovery.run ~apps:[ app ] ~machine ~victims:[ 3 ] ~crash_fracs:[ 0.4 ]
          ~rejoins:[ Recovery.Never; Quick; Late ] ~seeds:[ seed ]
          ~size:Catalog.Small ~scale ~nodes ~domains:0 ())
  with
  | points ->
      List.iteri
        (fun i (pt : Recovery.point) ->
          let add = Stats.add p.stats in
          add "liveness.deaths" pt.deaths;
          add "recovery.pages_rehomed" pt.pages_rehomed;
          (match pt.outcome with
          | Recovery.Rolled_back { added_cycles; _ } ->
              add "recovery.rollbacks" 1;
              add "recovery.added_cycles" added_cycles
          | Masked | Rehomed | Unrecoverable _ -> ());
          p.sim_cycles <- p.sim_cycles + pt.cycles;
          record p ~pins
            ~ns:(if i = 0 then !Probe.wall_ns - w0 else 0)
            (prefix ^ "/crash-" ^ Recovery.rejoin_label pt.rejoin)
            [ pt.cycles; pt.deaths; pt.revivals; pt.scrubbed; pt.epochs;
              pt.pages_rehomed ]
            pt.failed)
        points
  | exception e ->
      record p ~pins ~ns:(!Probe.wall_ns - w0) prefix []
        (Some (Printexc.to_string e))

(* Time the yardstick before each cell; its minor-heap words stay out of
   the pass's GC counts. *)
let gauge p =
  let w0 = Gc.minor_words () in
  p.speed <- Probe.host_speed ();
  p.yard_words <- p.yard_words +. (Gc.minor_words () -. w0)

let pass w ~seed ~pins ~traced =
  Probe.tracing := traced;
  Probe.reset ();
  Gc.full_major ();
  let gc0 = Gc.quick_stat () in
  let p =
    {
      traced;
      build_ns = 0;
      create_ns = 0;
      results = [];
      stats = Stats.create w.name;
      sim_cycles = 0;
      sim_msgs = 0;
      peak_queued = 0;
      wall_ns = 0;
      self_ns = [||];
      ops = 0;
      syncs = 0;
      events = 0;
      minor_words = 0.0;
      major_collections = 0;
      speed = 1.0;
      setup_ref_ns = 0.0;
      yard_words = 0.0;
    }
  in
  let scale = w.scale and nodes = w.nodes in
  List.iter
    (fun cell ->
      gauge p;
      match cell with
      | Plain { app; machine; cache_kb } ->
          let id = Printf.sprintf "%s/%s/%s/%dK" w.name app machine cache_kb in
          ignore
            (run_cell p ~pins ~seed ~id ~app ~scale ~nodes
               ~params:(params ~seed ~nodes ~cache_kb) machine)
      | Lossy { app } ->
          lossy p ~pins ~seed ~prefix:(w.name ^ "/" ^ app ^ "/stache") ~scale
            ~nodes app
      | Crash { app; machine } ->
          crash p ~pins ~seed
            ~prefix:(Printf.sprintf "%s/%s/%s" w.name app machine)
            ~scale ~nodes ~machine app)
    w.cells;
  let gc1 = Gc.quick_stat () in
  p.wall_ns <- !Probe.wall_ns;
  p.self_ns <- Array.copy Probe.self_ns;
  p.ops <- !Probe.ops;
  p.syncs <- !Probe.syncs;
  p.events <- !Probe.events;
  p.minor_words <- gc1.Gc.minor_words -. gc0.Gc.minor_words -. p.yard_words;
  p.major_collections <- gc1.Gc.major_collections - gc0.Gc.major_collections;
  p.results <- List.rev p.results;
  p
