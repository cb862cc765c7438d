(* Tests for crash-stop recovery: the Recovery harness end to end and the
   Faultsweep crash axis. *)

module Recovery = Tt_harness.Recovery
module Faultsweep = Tt_harness.Faultsweep
module Machine = Tt_harness.Machine

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

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

(* a rolled-back cell reports the fault-free baseline instead of running
   the app again: sound only because the baseline is deterministic *)
let test_rollback_reuses_baseline () =
  let base () =
    Recovery.baseline ~machine:"stache" ~name:"ocean"
      ~size:Tt_harness.Catalog.Small ~scale:0.25 ~nodes:8
  in
  let b1 = base () and b2 = base () in
  check_int "baseline cycles" b1.Recovery.result.Tt_harness.Run.cycles
    b2.Recovery.result.Tt_harness.Run.cycles;
  check_int "baseline msgs" b1.Recovery.msgs b2.Recovery.msgs;
  match
    Recovery.run ~apps:[ "ocean" ] ~victims:[ 3 ] ~rejoins:[ Recovery.Never ]
      ()
  with
  | [ p ] -> (
      match p.Recovery.outcome with
      | Recovery.Rolled_back _ ->
          check_int "the baseline's cycles"
            b1.Recovery.result.Tt_harness.Run.cycles p.Recovery.cycles;
          check_int "base_cycles" p.Recovery.base_cycles p.Recovery.cycles
      | o -> Alcotest.failf "expected a rollback, got %s"
               (Recovery.outcome_label o))
  | points -> Alcotest.failf "expected one cell, got %d" (List.length points)

let test_grid_dirnnb () =
  let points =
    Recovery.run ~apps:[ "ocean" ] ~machine:"dirnnb" ~victims:[ 3 ]
      ~rejoins:[ Recovery.Late ] ()
  in
  check_int "one cell" 1 (List.length points);
  check_bool "verified or diagnosed" true (Recovery.all_passed points);
  check_int "death verdict fired" 1 (List.hd points).Recovery.deaths

(* DirNNB's miss re-issue paths: on barnes a survivor's outstanding miss
   on a page homed at the victim is re-sent to the new home, and on mp3d
   the rejoining victim re-sends its own miss.  Every cell must still end
   verified or diagnosed, and the late-rejoin cells re-home in place. *)
let test_grid_dirnnb_reissue () =
  let points =
    Recovery.run ~apps:[ "barnes"; "mp3d" ] ~machine:"dirnnb"
      ~victims:[ 3; 7 ] ()
  in
  check_int "apps x victims x rejoins" 12 (List.length points);
  check_bool "verified or diagnosed" true (Recovery.all_passed points);
  check_bool "a cell re-homed a page and completed in place" true
    (List.exists
       (fun p ->
         p.Recovery.outcome = Recovery.Rehomed && p.Recovery.pages_rehomed > 0)
       points);
  check_bool "mp3d's rejoining victim completed in place" true
    (List.exists
       (fun p ->
         p.Recovery.app = "mp3d" && p.Recovery.victim = 7
         && p.Recovery.rejoin = Recovery.Late
         && p.Recovery.outcome = Recovery.Rehomed)
       points)

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

(* --- the recovery contract: entry points on the machine --- *)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_catalogue_recovery () =
  (* exactly the two directory machines carry the entry points; the
     catalogue's own filter agrees *)
  let params = { Params.default with Params.nodes = 4 } in
  List.iter
    (fun name ->
      check_bool
        (Printf.sprintf "%s carries recovery entry points" name)
        (List.mem name [ "stache"; "dirnnb" ])
        ((Machine.of_name name params).Machine.recovery <> None))
    Machine.names;
  Alcotest.(check (list string))
    "recoverable" [ "dirnnb"; "stache" ] (Machine.recoverable ())

(* an unrecoverable machine is refused by name before any baseline runs:
   with an unknown app the baseline would fail with a different message *)
let refusal f =
  match f () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg -> msg

let test_recovery_refuses_machine () =
  let msg =
    refusal (fun () ->
        Recovery.run ~apps:[ "no-such-app" ] ~machine:"migratory" ())
  in
  check_bool (Printf.sprintf "%S names the machine" msg) true
    (contains ~needle:{|"migratory"|} msg)

let test_faultsweep_update_crash_rejects () =
  (* the custom update protocol and the zoo have no recovery entry
     points: crash cells on them are refused by name up front, not
     failed mid-sweep *)
  List.iter
    (fun machine ->
      let msg =
        refusal (fun () ->
            Faultsweep.run ~apps:[ "no-such-app" ] ~machine
              ~crashes:[ Some Recovery.Never ] ())
      in
      check_bool (Printf.sprintf "%S names %s" msg machine) true
        (contains ~needle:(Printf.sprintf "%S" machine) msg))
    [ "update"; "widerep" ]

let test_crash_frac_range () =
  (* a crash at or past the baseline's end would never happen, and the
     cell would read as masked with no death *)
  List.iter
    (fun (frac, shown) ->
      let msg =
        refusal (fun () ->
            Recovery.run ~apps:[ "ocean" ] ~victims:[ 3 ] ~crash_fracs:[ frac ]
              ~rejoins:[ Recovery.Never ] ())
      in
      check_bool (Printf.sprintf "%S names %s" msg shown) true
        (contains ~needle:("fraction " ^ shown ^ " of") msg))
    [ (1.5, "1.5"); (1.0, "1"); (0.0, "0"); (-0.2, "-0.2") ]

let test_diagnose_labels () =
  let check_label exn expected =
    Alcotest.(check (option string))
      expected (Some expected) (Recovery.diagnose exn)
  in
  check_label (Tt_harness.Watchdog.Expired "budget") "Watchdog: budget";
  check_label (Tt_harness.Run.Stuck "drained") "Stuck: drained";
  check_label (Failure "audit") "Failure: audit";
  Alcotest.(check (option string))
    "uncaptured" None (Recovery.diagnose Not_found)

let () =
  Alcotest.run "recovery"
    [
      ( "grid",
        [
          Alcotest.test_case "stache rejoin axis" `Quick
            test_grid_stache;
          Alcotest.test_case "bit-reproducible" `Quick
            test_grid_deterministic;
          Alcotest.test_case "rollback reuses the baseline" `Quick
            test_rollback_reuses_baseline;
          Alcotest.test_case "dirnnb late rejoin" `Quick
            test_grid_dirnnb;
          Alcotest.test_case "dirnnb miss re-issue" `Quick
            test_grid_dirnnb_reissue;
        ] );
      ( "faultsweep",
        [
          Alcotest.test_case "crash axis" `Quick
            test_faultsweep_crash_axis;
          Alcotest.test_case "update machine refused" `Quick
            test_faultsweep_update_crash_rejects;
        ] );
      ( "contract",
        [
          Alcotest.test_case "catalogue recovery entry points" `Quick
            test_catalogue_recovery;
          Alcotest.test_case "migratory refused by name" `Quick
            test_recovery_refuses_machine;
          Alcotest.test_case "crash fraction inside (0, 1)" `Quick
            test_crash_frac_range;
          Alcotest.test_case "one diagnosis mapping" `Quick
            test_diagnose_labels;
        ] );
    ]
