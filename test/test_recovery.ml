(* Whole-suite invariant: pool-debug mode poisons released pool buffers
   and rejects double-release (satellite of the zero-allocation PR). *)
let () = Tt_util.Debug.set_pool_debug true

(* Tests for crash-stop recovery: the Recovery harness end to end, the
   Faultsweep crash axis, and the TT_RECOVERY kill switch. *)

module Engine = Tt_sim.Engine
module Fabric = Tt_net.Fabric
module Faults = Tt_net.Faults
module Recovery = Tt_harness.Recovery
module Faultsweep = Tt_harness.Faultsweep

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* The grid tests inject crash windows, so they must hold the recovery
   switch on for their duration: the suite also runs under TT_RECOVERY=0
   (see scripts/check_all.sh), where [Faults.create] would
   otherwise ignore the schedule and every cell would run fault-free. *)
let with_recovery_on f () =
  let prior = Faults.recovery_enabled () in
  Fun.protect
    ~finally:(fun () -> Faults.set_recovery prior)
    (fun () ->
      Faults.set_recovery true;
      f ())

let test_grid_stache () =
  (* the full rejoin axis on one app: every cell must end in verified
     results or a diagnosed abort, the sub-lease outage must be masked,
     and a death verdict must fire exactly when the window outlasts the
     lease *)
  let points = Recovery.run ~apps:[ "ocean" ] ~victims:[ 0 ] () in
  check_int "one cell per rejoin mode" 3 (List.length points);
  check_bool "all cells verified or diagnosed" true
    (Recovery.all_passed points);
  List.iter
    (fun p ->
      match p.Recovery.rejoin with
      | Recovery.Quick ->
          check_bool "sub-lease outage masked" true
            (p.Recovery.outcome = Recovery.Masked);
          check_int "no death verdict" 0 p.Recovery.deaths
      | Recovery.Never | Recovery.Late -> (
          check_int "death verdict fired" 1 p.Recovery.deaths;
          match p.Recovery.outcome with
          | Recovery.Rehomed | Recovery.Rolled_back _ -> ()
          | o ->
              Alcotest.failf "super-lease outage ended as %s"
                (Recovery.outcome_label o)))
    points

let test_grid_deterministic () =
  (* bit-reproducible per seed: the whole point list, cycles and outcomes
     included, must be identical across runs *)
  let sweep () =
    Recovery.run ~apps:[ "ocean" ] ~victims:[ 3 ]
      ~rejoins:[ Recovery.Never; Recovery.Quick ] ()
  in
  check_bool "identical point lists" true (sweep () = sweep ())

let test_grid_dirnnb () =
  let points =
    Recovery.run ~apps:[ "ocean" ] ~machine:"dirnnb" ~victims:[ 3 ]
      ~rejoins:[ Recovery.Late ] ()
  in
  check_int "one cell" 1 (List.length points);
  check_bool "verified or diagnosed" true (Recovery.all_passed points);
  check_int "death verdict fired" 1 (List.hd points).Recovery.deaths

let test_faultsweep_crash_axis () =
  (* the faults grid's crash column: a crash cell runs under the full
     recovery stack and reports how it reached verified results *)
  let points =
    Faultsweep.run ~apps:[ "ocean" ] ~drops:[ 0.0 ] ~seeds:[ 1 ]
      ~crashes:[ None; Some Recovery.Quick ] ()
  in
  check_int "two cells" 2 (List.length points);
  check_bool "all passed" true (Faultsweep.all_passed points);
  List.iter
    (fun p ->
      match p.Faultsweep.crash with
      | None ->
          check_bool "plain cell has no recovery verdict" true
            (p.Faultsweep.recovery = None)
      | Some Recovery.Quick ->
          check_bool "crash cell masked" true
            (p.Faultsweep.recovery = Some Recovery.Masked)
      | Some _ -> Alcotest.fail "unexpected crash mode")
    points

let test_faultsweep_update_crash_rejects () =
  (* the custom update protocol has no recovery entry points: asking for
     crash cells on it must be refused up front, not fail mid-sweep *)
  match
    Faultsweep.run ~apps:[ "em3d" ] ~machine:"update"
      ~crashes:[ Some Recovery.Never ] ()
  with
  | _ -> Alcotest.fail "update + crash must be refused"
  | exception Invalid_argument _ -> ()

let test_kill_switch () =
  (* TT_RECOVERY=0 semantics: with recovery off, a crash schedule is
     ignored at Faults.create, so no window ever exists *)
  let prior = Faults.recovery_enabled () in
  Fun.protect
    ~finally:(fun () -> Faults.set_recovery prior)
    (fun () ->
      Faults.set_recovery false;
      check_bool "switch reads back off" false (Faults.recovery_enabled ());
      let e = Engine.create () in
      let f = Fabric.create e ~nodes:2 ~latency:11 () in
      let fl =
        Faults.create
          (Faults.uniform ~seed:1
             ~crashes:[ Faults.crash ~victim:1 ~at:0 ~rejoin:100 () ]
             ())
          f
      in
      check_bool "no crash window" true (Faults.crash_window fl ~node:1 = None);
      check_bool "never down" false (Faults.is_down fl ~node:1 ~at:50))

let () =
  Alcotest.run "recovery"
    [
      ( "grid",
        [
          Alcotest.test_case "stache rejoin axis" `Quick
            (with_recovery_on test_grid_stache);
          Alcotest.test_case "bit-reproducible" `Quick
            (with_recovery_on test_grid_deterministic);
          Alcotest.test_case "dirnnb late rejoin" `Quick
            (with_recovery_on test_grid_dirnnb);
        ] );
      ( "faultsweep",
        [
          Alcotest.test_case "crash axis" `Quick
            (with_recovery_on test_faultsweep_crash_axis);
          Alcotest.test_case "update machine refused" `Quick
            test_faultsweep_update_crash_rejects;
        ] );
      ( "kill-switch",
        [ Alcotest.test_case "TT_RECOVERY=0" `Quick test_kill_switch ] );
    ]
