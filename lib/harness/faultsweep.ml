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

let point ~name ~label ~drop ~crash ~recovery ~seed ~cycles ~base stats outcome
    =
  let get = Stats.get stats in
  {
    app = name;
    machine_label = label;
    drop;
    crash;
    recovery;
    seed;
    cycles;
    base_cycles = base.Recovery.result.Run.cycles;
    data_sent = get "reliable.data_sent";
    retransmits = get "reliable.retransmits";
    acks = get "reliable.acks_sent";
    dropped = get "faults.dropped";
    duplicated = get "faults.duplicated";
    reordered = get "faults.reordered";
    spilled = get "flow.spilled";
    blocked = get "flow.blocked";
    outcome;
  }

let run_app ?request_drop ?response_drop ?burst ?credits ?spill
    ?(crashes = [ None ]) ~machine ~name ~size ~scale ~nodes ~drops ~seeds () =
  (* fault-free baseline under ample default capacities: the oracle every
     faulty run must match, and the yardstick for the watchdog budgets —
     never the overload configuration itself *)
  let base = Recovery.baseline ~machine ~name ~size ~scale ~nodes in
  (* grid cells may additionally squeeze the flow-control capacities, so a
     fault storm meets real backpressure (spills, blocked senders) instead
     of unbounded parking *)
  let params =
    let p = { Params.default with Params.nodes } in
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
  List.concat_map
    (fun crash ->
      List.concat_map
        (fun drop ->
          List.map (fun seed -> (crash, drop, seed)) seeds)
        drops)
    crashes
  |> List.map (fun (crash, drop, seed) ->
         match crash with
         | Some rejoin ->
             (* the recovery harness owns the whole cell, with
                {!Recovery.run}'s geometry (victim 0 at 40% of the
                fault-free runtime): liveness wiring, checkpoints,
                rollback, and oracle verification.  Capacity squeezes
                ([credits]/[spill]) don't apply to crash cells. *)
             let c, stats =
               Recovery.cell ~machine ~name ~size ~scale ~nodes ~base
                 ~victim:0 ~frac:0.4 ~rejoin ~seed ~faults:(fun ~seed crashes ->
                   config_of ?request_drop ?response_drop ?burst ~crashes
                     ~drop ~seed ())
             in
             point ~name ~label:c.Recovery.machine_label ~drop ~crash
               ~recovery:(Some c.Recovery.outcome) ~seed
               ~cycles:c.Recovery.cycles ~base stats Passed
         | None -> (
             let reliability =
               Reliable.Flaky
                 (config_of ?request_drop ?response_drop ?burst ~drop ~seed ())
             in
             let m = Machine.of_name ~reliability machine params in
             let finish outcome cycles =
               point ~name ~label:m.Machine.label ~drop ~crash:None
                 ~recovery:None ~seed ~cycles ~base
                 (m.Machine.merged_stats ()) outcome
             in
             match
               Run.verified m ~watchdog:(Recovery.watchdog base)
                 (Catalog.make ~name ~size ~scale ~nprocs:nodes)
             with
             | r -> finish Passed r.Run.cycles
             | exception e -> (
                 match Recovery.diagnose e with
                 | Some reason -> finish (Failed reason) 0
                 | None -> raise e)))

let run ?(apps = Catalog.names) ?(machine = "stache")
    ?(drops = [ 0.01; 0.05 ]) ?(seeds = [ 1; 2; 3 ]) ?(crashes = [ None ])
    ?request_drop ?response_drop ?burst ?credits ?spill ?(size = Catalog.Small)
    ?(scale = 0.25) ?(nodes = 8) ?(domains = 0) () =
  if List.exists Option.is_some crashes then Recovery.require machine;
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
