module Stats = Tt_util.Stats
module Reliable = Tt_net.Reliable
module Faults = Tt_net.Faults

type outcome = Passed | Failed of string

type point = {
  app : string;
  machine_label : string;
  drop : float;
  crash : Recovery.rejoin option;
  recovery : Recovery.outcome option;
  seed : int;
  cycles : int;
  base_cycles : int;
  data_sent : int;
  retransmits : int;
  acks : int;
  dropped : int;
  duplicated : int;
  reordered : int;
  spilled : int;
  blocked : int;
  outcome : outcome;
}

(* A drop rate implies correlated dup/reorder rates so one sweep axis
   exercises the whole fault taxonomy.  Per-vnet overrides replace the
   axis rate for that vnet only; the taxonomy still follows each vnet's
   effective drop rate, so an asymmetric grid cell (lossy requests under
   clean responses, or vice versa) keeps the same fault mix per vnet. *)
let config_of ?request_drop ?response_drop ?burst ?crashes ~drop ~seed () =
  let rates d =
    { Faults.drop = d; dup = d /. 4.0; reorder = d /. 2.0 }
  in
  let req = Option.value request_drop ~default:drop in
  let resp = Option.value response_drop ~default:drop in
  Faults.per_vnet ~seed ?burst ?crashes ~request:(rates req)
    ~response:(rates resp) ()

let total_msgs stats =
  Stats.get stats "msgs.request" + Stats.get stats "msgs.response"

let run_app ?request_drop ?response_drop ?burst ?credits ?spill
    ?(crashes = [ None ]) ~machine ~name ~size ~scale ~nodes ~drops ~seeds () =
  (* fault-free baseline under ample default capacities: the oracle every
     faulty run must match, and the yardstick for the watchdog budgets —
     never the overload configuration itself *)
  let base_params = { Params.default with Params.nodes } in
  (* grid cells may additionally squeeze the flow-control capacities, so a
     fault storm meets real backpressure (spills, blocked senders) instead
     of unbounded parking *)
  let params =
    let p = base_params in
    let p =
      match credits with
      | Some c ->
          { p with Params.flow_request_credits = c; flow_response_credits = c }
      | None -> p
    in
    match spill with
    | Some s -> { p with Params.flow_spill_capacity = s }
    | None -> p
  in
  let base, base_msgs, latency =
    let m = Machine.of_name machine base_params in
    let app = Catalog.make ~name ~size ~scale ~nprocs:nodes in
    let r = Run.spmd m ~name app.Catalog.body in
    ignore
      (Run.spmd m ~name:(name ^ "-verify") ~check:false app.Catalog.verify);
    (r, total_msgs r.Run.run_stats, Reliable.latency m.Machine.net)
  in
  (* crash cells share {!Recovery.run}'s geometry: victim 0 goes down at
     40% of the fault-free runtime, and the rejoin windows sit against the
     same detection lease (heartbeat period 32 fabric latencies, budget 4) *)
  let crash_at = max 1 (int_of_float (0.4 *. float_of_int base.Run.cycles)) in
  let lease = 4 * (32 * latency) in
  List.concat_map
    (fun crash ->
      List.concat_map
        (fun drop ->
          List.map (fun seed -> (crash, drop, seed)) seeds)
        drops)
    crashes
  |> List.map (fun (crash, drop, seed) ->
         match crash with
         | Some rj ->
             let rejoin =
               match rj with
               | Recovery.Never -> None
               | Recovery.Quick -> Some (crash_at + (lease / 2))
               | Recovery.Late -> Some (crash_at + (4 * lease))
             in
             let config =
               config_of ?request_drop ?response_drop ?burst
                 ~crashes:[ Faults.crash ?rejoin ~victim:0 ~at:crash_at () ]
                 ~drop ~seed ()
             in
             (* the recovery harness owns the whole cell: liveness wiring,
                checkpoints, rollback, and oracle verification.  Capacity
                squeezes ([credits]/[spill]) don't apply to crash cells. *)
             let er =
               Recovery.exec ~machine ~name ~size ~scale ~nodes ~config ~base
                 ~base_msgs ()
             in
             let s = er.Recovery.cell_stats in
             {
               app = name;
               machine_label = er.Recovery.label;
               drop;
               crash;
               recovery = Some er.Recovery.outcome;
               seed;
               cycles = er.Recovery.cycles;
               base_cycles = base.Run.cycles;
               data_sent = Stats.get s "reliable.data_sent";
               retransmits = Stats.get s "reliable.retransmits";
               acks = Stats.get s "reliable.acks_sent";
               dropped = Stats.get s "faults.dropped";
               duplicated = Stats.get s "faults.duplicated";
               reordered = Stats.get s "faults.reordered";
               spilled = Stats.get s "flow.spilled";
               blocked = Stats.get s "flow.blocked";
               outcome =
                 (match er.Recovery.failed with
                 | None -> Passed
                 | Some msg -> Failed msg);
             }
         | None ->
          let reliability =
            Reliable.Flaky
              (config_of ?request_drop ?response_drop ?burst ~drop ~seed ())
          in
          let m = Machine.of_name ~reliability machine params in
          let watchdog =
            Watchdog.create
              ~max_cycles:((base.Run.cycles * 100) + 5_000_000)
              ~max_retransmits:((base_msgs * 10) + 100_000)
              ~max_stall:((base.Run.cycles * 10) + 1_000_000)
              ()
          in
          let app = Catalog.make ~name ~size ~scale ~nprocs:nodes in
          let finish outcome cycles =
            let s = m.Machine.merged_stats () in
            {
              app = name;
              machine_label = m.Machine.label;
              drop;
              crash = None;
              recovery = None;
              seed;
              cycles;
              base_cycles = base.Run.cycles;
              data_sent = Stats.get s "reliable.data_sent";
              retransmits = Stats.get s "reliable.retransmits";
              acks = Stats.get s "reliable.acks_sent";
              dropped = Stats.get s "faults.dropped";
              duplicated = Stats.get s "faults.duplicated";
              reordered = Stats.get s "faults.reordered";
              spilled = Stats.get s "flow.spilled";
              blocked = Stats.get s "flow.blocked";
              outcome;
            }
          in
          match
            let r = Run.spmd m ~name ~watchdog app.Catalog.body in
            (* the app's own verify checks the final data against its
               sequential oracle — "results identical to fault-free" *)
            ignore
              (Run.spmd m ~name:(name ^ "-verify") ~check:false ~watchdog
                 app.Catalog.verify);
            r
          with
          | r -> finish Passed r.Run.cycles
          | exception Reliable.Link_failed msg ->
              finish (Failed ("Link_failed: " ^ msg)) 0
          | exception Tt_net.Overload.Overload msg ->
              finish (Failed ("Overload: " ^ msg)) 0
          | exception Watchdog.Expired msg -> finish (Failed msg) 0
          | exception Run.Stuck msg -> finish (Failed msg) 0
          | exception Failure msg -> finish (Failed msg) 0
          | exception Invalid_argument msg ->
              finish (Failed ("Invalid_argument: " ^ msg)) 0)

let run ?(apps = Catalog.names) ?(machine = "stache")
    ?(drops = [ 0.01; 0.05 ]) ?(seeds = [ 1; 2; 3 ]) ?(crashes = [ None ])
    ?request_drop ?response_drop ?burst ?credits ?spill ?(size = Catalog.Small)
    ?(scale = 0.25) ?(nodes = 8) ?(domains = 0) () =
  if
    machine <> "stache" && machine <> "dirnnb"
    && List.exists Option.is_some crashes
  then
    invalid_arg
      "Faultsweep: custom protocols do not implement the crash-recovery \
       entry points; use --machine stache or dirnnb with --crash";
  (* parallel unit is the app, not the cell: every faulty cell compares
     against its app's fault-free baseline, so the (baseline, grid) bundle
     stays on one domain and the whole bundle fans out *)
  Tt_sim.Domains.map ~domains
    (fun name ->
      run_app ?request_drop ?response_drop ?burst ?credits ?spill ~crashes
        ~machine ~name ~size ~scale ~nodes ~drops ~seeds ())
    apps
  |> List.concat

let all_passed points =
  List.for_all (fun p -> p.outcome = Passed) points

let render points =
  let t =
    Tt_util.Tablefmt.create
      ~title:
        "Fault sweep: Fig. 3 apps over an unreliable fabric (results \
         verified against the fault-free oracle)"
      ~columns:
        [ ("app", Tt_util.Tablefmt.Left); ("machine", Tt_util.Tablefmt.Left);
          ("drop%", Tt_util.Tablefmt.Right);
          ("crash", Tt_util.Tablefmt.Left); ("seed", Tt_util.Tablefmt.Right);
          ("cycles", Tt_util.Tablefmt.Right);
          ("xbase", Tt_util.Tablefmt.Right);
          ("sent", Tt_util.Tablefmt.Right); ("retx", Tt_util.Tablefmt.Right);
          ("acks", Tt_util.Tablefmt.Right);
          ("dropped", Tt_util.Tablefmt.Right);
          ("dup", Tt_util.Tablefmt.Right); ("reord", Tt_util.Tablefmt.Right);
          ("spill", Tt_util.Tablefmt.Right); ("blk", Tt_util.Tablefmt.Right);
          ("result", Tt_util.Tablefmt.Left) ]
  in
  List.iter
    (fun p ->
      Tt_util.Tablefmt.add_row t
        [ p.app; p.machine_label;
          Printf.sprintf "%.1f" (100.0 *. p.drop);
          (match p.crash with
          | None -> "-"
          | Some rj -> Recovery.rejoin_label rj);
          string_of_int p.seed; string_of_int p.cycles;
          (if p.cycles = 0 then "-"
           else
             Printf.sprintf "%.2f"
               (float_of_int p.cycles /. float_of_int p.base_cycles));
          string_of_int p.data_sent; string_of_int p.retransmits;
          string_of_int p.acks; string_of_int p.dropped;
          string_of_int p.duplicated; string_of_int p.reordered;
          string_of_int p.spilled; string_of_int p.blocked;
          (match (p.outcome, p.recovery) with
          | Failed m, _ -> "FAIL: " ^ m
          | Passed, None -> "ok"
          | Passed, Some o -> "ok: " ^ Recovery.outcome_label o) ])
    points;
  Tt_util.Tablefmt.render t
