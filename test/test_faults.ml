(* Tier-1 fault-tolerance tests: a small fault-matrix smoke over the Fig. 3
   apps, determinism of faulty runs, and termination guarantees (watchdog
   budgets, dead-link escalation). *)

module Machine = Tt_harness.Machine
module Run = Tt_harness.Run
module Catalog = Tt_harness.Catalog
module Faultsweep = Tt_harness.Faultsweep
module Watchdog = Tt_harness.Watchdog
module Reliable = Tt_net.Reliable
module Faults = Tt_net.Faults
module Stats = Tt_util.Stats

let check_int = Alcotest.(check int)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* 2 drop rates x 3 seeds on a small em3d: every cell must complete, pass
   the coherence audit, and reproduce the fault-free oracle's results *)
let test_fault_matrix_smoke machine () =
  let points =
    Faultsweep.run ~apps:[ "em3d" ] ~machine ~drops:[ 0.01; 0.05 ]
      ~seeds:[ 1; 2; 3 ] ~scale:0.05 ~nodes:4 ()
  in
  check_int "grid size" 6 (List.length points);
  List.iter
    (fun p ->
      match p.Faultsweep.outcome with
      | Faultsweep.Passed ->
          Alcotest.(check bool)
            "faults were actually injected" true
            (p.Faultsweep.dropped > 0)
      | Faultsweep.Failed m ->
          Alcotest.fail
            (Printf.sprintf "em3d on %s drop=%.2f seed=%d: %s" machine
               p.Faultsweep.drop p.Faultsweep.seed m))
    points

let flaky_em3d ~seed ~drop =
  let params = { Params.default with Params.nodes = 4 } in
  let reliability = Reliable.Flaky (Faultsweep.config_of ~drop ~seed ()) in
  let m = Machine.typhoon_stache ~reliability params in
  let app = Catalog.make ~name:"em3d" ~size:Catalog.Small ~scale:0.05 ~nprocs:4 in
  let r = Run.spmd m ~name:"em3d" app.Catalog.body in
  let s = m.Machine.merged_stats () in
  ( r.Run.cycles,
    Stats.get s "faults.dropped",
    Stats.get s "faults.duplicated",
    Stats.get s "faults.reordered",
    Stats.get s "reliable.retransmits" )

let test_faulty_runs_deterministic () =
  (* identical seed and fault config => bit-identical timing and fault
     counters; a different seed must perturb something *)
  let a = flaky_em3d ~seed:11 ~drop:0.05 in
  let b = flaky_em3d ~seed:11 ~drop:0.05 in
  Alcotest.(check bool) "same seed reproduces exactly" true (a = b);
  let c = flaky_em3d ~seed:12 ~drop:0.05 in
  Alcotest.(check bool) "different seed differs" true (a <> c)

(* A 2-node remote read over a link that drops everything: proc 1's fetch
   can never be repaired, so the retransmit bound must fire. *)
let dead_link_run ?watchdog () =
  let params = { Params.default with Params.nodes = 2 } in
  let reliability = Reliable.Flaky (Faults.uniform ~seed:3 ~drop:1.0 ()) in
  let m = Machine.typhoon_stache ~reliability params in
  let addr = ref 0 in
  Run.spmd m ~name:"dead-link" ?watchdog (fun env ->
      let open Tt_app.Env in
      if env.proc = 0 then addr := env.alloc ~home:0 256;
      env.barrier ();
      if env.proc = 1 then ignore (env.read !addr))

let test_dead_link_terminates () =
  match dead_link_run () with
  | _ -> Alcotest.fail "a fully dead link must not complete"
  | exception Reliable.Link_failed _ -> ()

let test_watchdog_cycle_budget () =
  (* a tiny cycle budget trips the watchdog long before the transport's own
     retry bound (first Link_failed needs ~10 doubling RTOs) *)
  let watchdog = Watchdog.create ~max_cycles:2_000 ~check_interval:500 () in
  match dead_link_run ~watchdog () with
  | _ -> Alcotest.fail "budget must expire"
  | exception Watchdog.Expired m ->
      (* the diagnosis must carry the full progress picture: queue depth
         and the retransmit count at expiry *)
      Alcotest.(check bool) "reports pending events" true
        (contains m "events still pending");
      Alcotest.(check bool) "reports retransmit count" true
        (contains m "retransmissions so far")

let test_watchdog_retransmit_budget () =
  let watchdog =
    Watchdog.create ~max_retransmits:5 ~check_interval:1_000 ()
  in
  match dead_link_run ~watchdog () with
  | _ -> Alcotest.fail "retransmit budget must expire"
  | exception Watchdog.Expired m ->
      Alcotest.(check bool) "names the blown budget" true
        (contains m "retransmission");
      Alcotest.(check bool) "reports pending events" true
        (contains m "events pending");
      Alcotest.(check bool) "not a drain-time detection" false
        (contains m "(run completed)")

let test_watchdog_drain_time_check () =
  (* a run that completes but blew its retransmit budget during the final
     slice: the drain-time check must still fire, and must say the run
     completed so the report is not mistaken for a livelock *)
  let watchdog =
    Watchdog.create ~max_retransmits:0 ~check_interval:100_000_000 ()
  in
  let params = { Params.default with Params.nodes = 4 } in
  let reliability =
    Reliable.Flaky (Faultsweep.config_of ~drop:0.05 ~seed:11 ())
  in
  let m = Machine.typhoon_stache ~reliability params in
  let app =
    Catalog.make ~name:"em3d" ~size:Catalog.Small ~scale:0.05 ~nprocs:4
  in
  match Run.spmd m ~name:"em3d" ~watchdog app.Catalog.body with
  | _ -> Alcotest.fail "zero retransmit budget must expire at drain"
  | exception Watchdog.Expired msg ->
      Alcotest.(check bool) "reports drain-time detection" true
        (contains msg "(run completed)")

let test_watchdog_rejects_empty () =
  Alcotest.check_raises "no budget"
    (Invalid_argument "Watchdog.create: no budget given") (fun () ->
      ignore (Watchdog.create ()))

let () =
  Alcotest.run "faults"
    [
      ( "matrix",
        [
          Alcotest.test_case "em3d survives drop grid on stache" `Slow
            (test_fault_matrix_smoke "stache");
          Alcotest.test_case "em3d survives drop grid on dirnnb" `Slow
            (test_fault_matrix_smoke "dirnnb");
        ] );
      ( "determinism",
        [
          Alcotest.test_case "faulty runs reproduce per seed" `Slow
            test_faulty_runs_deterministic;
        ] );
      ( "termination",
        [
          Alcotest.test_case "dead link escalates" `Quick
            test_dead_link_terminates;
          Alcotest.test_case "cycle budget expires" `Quick
            test_watchdog_cycle_budget;
          Alcotest.test_case "retransmit budget expires" `Quick
            test_watchdog_retransmit_budget;
          Alcotest.test_case "drain-time budget check" `Slow
            test_watchdog_drain_time_check;
          Alcotest.test_case "empty watchdog rejected" `Quick
            test_watchdog_rejects_empty;
        ] );
    ]
