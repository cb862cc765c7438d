(* Application-level tests: every benchmark must reproduce its sequential
   oracle on every machine, and runs must be deterministic. *)

module Machine = Tt_harness.Machine
module Run = Tt_harness.Run
module Catalog = Tt_harness.Catalog

let nodes = 8

let params = { Params.default with Params.nodes; cpu_cache_bytes = 16384 }

let tiny_scale name =
  (* keep test runs fast: per-app shrink factors relative to Table 3 *)
  match name with
  | "appbt" -> 0.2
  | "barnes" -> 0.1
  | "mp3d" -> 0.05
  | "ocean" -> 0.12
  | "em3d" -> 0.04
  | _ -> 0.1

let machines =
  [ ("dirnnb", Machine.dirnnb ?reliability:None);
    ("stache", Machine.typhoon_stache ?reliability:None) ]

let verified_run name (mk : Params.t -> Machine.t) =
  let machine = mk params in
  let app =
    Catalog.make ~name ~size:Catalog.Small ~scale:(tiny_scale name)
      ~nprocs:nodes
  in
  Run.verified machine app

let test_app_matches_oracle name () =
  List.iter
    (fun (label, mk) ->
      try ignore (verified_run name mk)
      with e ->
        Alcotest.fail
          (Printf.sprintf "%s on %s: %s" name label (Printexc.to_string e)))
    machines

let test_em3d_matches_oracle_on_update_machine () =
  let machine = Machine.typhoon_em3d params in
  let app =
    Catalog.make ~name:"em3d" ~size:Catalog.Small ~scale:(tiny_scale "em3d")
      ~nprocs:nodes
  in
  ignore (Run.verified machine app)

let test_runs_are_deterministic () =
  (* identical seeds → identical cycle counts, on both machines *)
  List.iter
    (fun (label, mk) ->
      let c1 = (verified_run "ocean" mk).Run.cycles in
      let c2 = (verified_run "ocean" mk).Run.cycles in
      Alcotest.(check int) (label ^ " deterministic") c1 c2)
    machines

let test_seed_changes_timing () =
  (* different cache-replacement seeds must actually change something *)
  let run seed =
    let machine =
      Machine.typhoon_stache
        { params with Params.seed; cpu_cache_bytes = 4096 }
    in
    let app =
      Catalog.make ~name:"em3d" ~size:Catalog.Small ~scale:0.04 ~nprocs:nodes
    in
    (Run.spmd machine ~name:"em3d" app.Catalog.body).Run.cycles
  in
  Alcotest.(check bool) "seeds differ" true (run 1 <> run 2)

(* the synthetic workload generator: both sharing modes verify on both
   machines across a range of remote fractions *)
let test_synth_verifies () =
  List.iter
    (fun sharing ->
      List.iter
        (fun remote_pct ->
          List.iter
            (fun (label, mk) ->
              let cfg =
                { Tt_app.Synth.default with
                  Tt_app.Synth.remote_pct;
                  ops_per_proc = 400;
                  words_per_proc = 64;
                  sharing }
              in
              let machine : Machine.t = mk params in
              let inst = Tt_app.Synth.make cfg ~nprocs:nodes in
              try
                ignore
                  (Run.spmd machine ~name:"synth" inst.Tt_app.Synth.body);
                ignore
                  (Run.spmd machine ~name:"synth-v" ~check:false
                     inst.Tt_app.Synth.verify)
              with e ->
                Alcotest.fail
                  (Printf.sprintf "synth %s remote=%d on %s: %s"
                     (match sharing with
                     | Tt_app.Synth.Private_writes -> "private"
                     | Tt_app.Synth.Locked_counters -> "locked"
                     | Tt_app.Synth.Producer_consumer -> "prodcons")
                     remote_pct label (Printexc.to_string e)))
            machines)
        [ 0; 50; 100 ])
    [ Tt_app.Synth.Private_writes; Tt_app.Synth.Locked_counters;
      Tt_app.Synth.Producer_consumer ]

let test_synth_stream_deterministic () =
  (* identical configs on fresh machines reproduce identical cycle counts *)
  let cfg = Tt_app.Synth.default in
  let machine = Machine.typhoon_stache params in
  let r1 = Run.spmd machine ~name:"synth" (Tt_app.Synth.make cfg ~nprocs:nodes).Tt_app.Synth.body in
  let machine2 = Machine.typhoon_stache params in
  let r2 = Run.spmd machine2 ~name:"synth" (Tt_app.Synth.make cfg ~nprocs:nodes).Tt_app.Synth.body in
  Alcotest.(check int) "equal cycles" r1.Run.cycles r2.Run.cycles

let test_catalog_rejects_unknown () =
  Alcotest.check_raises "unknown app"
    (Invalid_argument "Catalog.make: unknown app \"nope\"") (fun () ->
      ignore (Catalog.make ~name:"nope" ~size:Catalog.Small ~scale:1.0 ~nprocs:4))

let test_data_set_descriptions () =
  List.iter
    (fun name ->
      let d =
        Catalog.data_set_description ~name ~size:Catalog.Small ~scale:1.0
      in
      Alcotest.(check bool) (name ^ " described") true (String.length d > 0))
    Catalog.names;
  (* paper's Table 3 values at scale 1.0 *)
  Alcotest.(check string) "appbt small" "12x12x12"
    (Catalog.data_set_description ~name:"appbt" ~size:Catalog.Small ~scale:1.0);
  Alcotest.(check string) "barnes large" "8192 bodies"
    (Catalog.data_set_description ~name:"barnes" ~size:Catalog.Large ~scale:1.0);
  Alcotest.(check string) "em3d small" "64000 nodes, degree 10"
    (Catalog.data_set_description ~name:"em3d" ~size:Catalog.Small ~scale:1.0)

let () =
  Alcotest.run "apps"
    [
      ( "oracle",
        List.map
          (fun name ->
            Alcotest.test_case
              (name ^ " matches oracle on both machines")
              `Slow (test_app_matches_oracle name))
          Catalog.names
        @ [
            Alcotest.test_case "em3d on the update machine" `Slow
              test_em3d_matches_oracle_on_update_machine;
          ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed, same cycles" `Slow
            test_runs_are_deterministic;
          Alcotest.test_case "different seed, different cycles" `Slow
            test_seed_changes_timing;
        ] );
      ( "synth",
        [
          Alcotest.test_case "both modes verify everywhere" `Slow
            test_synth_verifies;
          Alcotest.test_case "deterministic" `Slow
            test_synth_stream_deterministic;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "unknown app rejected" `Quick
            test_catalog_rejects_unknown;
          Alcotest.test_case "Table 3 descriptions" `Quick
            test_data_set_descriptions;
        ] );
    ]
