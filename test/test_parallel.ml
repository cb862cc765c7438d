(* Domain-level parallelism in the harness.

   The determinism contract under test:

   - Domains.map: results come back in input order for every worker
     count, and a failure re-raises the earliest failing item's
     exception, as a sequential List.map would.
   - Harness sweeps: scaling / fault / torture grids fan out over domains
     with bit-identical points, and a whole machine simulation is
     domain-relocatable (same cycles when run inside Domain.spawn). *)

module Domains = Tt_sim.Domains
module H = Tt_harness

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* ---------------- Domains.map ---------------- *)

(* uneven per-item work, so worker domains finish out of input order *)
let spin i =
  for _ = 1 to (7 - (i mod 7)) * 20_000 do
    ignore (Sys.opaque_identity i)
  done;
  i * i

let test_map_input_order () =
  let xs = List.init 12 Fun.id in
  let expect = List.map spin xs in
  List.iter
    (fun domains ->
      Alcotest.(check (list int))
        (Printf.sprintf "input order, %d domains" domains)
        expect
        (Domains.map ~domains spin xs))
    [ 0; 1; 3; 20 ]

exception Item of int

(* items 2 and 5 both raise: whatever order the workers reach them in,
   item 2's exception is the one surfaced *)
let test_map_earliest_failure () =
  let f i = if i = 2 || i = 5 then raise (Item i) else spin i in
  List.iter
    (fun domains ->
      check_int
        (Printf.sprintf "earliest failure, %d domains" domains)
        2
        (match Domains.map ~domains f (List.init 8 Fun.id) with
        | (_ : int list) -> -1
        | exception Item i -> i))
    [ 0; 1; 3; 20 ]

let test_map_empty () =
  List.iter
    (fun domains ->
      Alcotest.(check (list int))
        (Printf.sprintf "empty, %d domains" domains)
        []
        (Domains.map ~domains (fun _ -> assert false) []))
    [ 0; 1; 3; 20 ]

(* ---------------- Harness sweeps: parallel parity ---------------- *)

let strip_cpu (p : H.Scaling.point) =
  (p.H.Scaling.app, p.H.Scaling.nodes, p.H.Scaling.dirnnb_cycles,
   p.H.Scaling.stache_cycles)

let test_scaling_parallel_parity () =
  let sweep domains =
    H.Scaling.run ~apps:[ "em3d"; "ocean" ] ~nodes:[ 4; 8 ] ~scale:0.05
      ~cache_kb:256 ~domains ()
    |> List.map strip_cpu
  in
  let seq = sweep 0 in
  check_int "grid size" 4 (List.length seq);
  check_bool "parallel sweep bit-identical" true (seq = sweep 3)

let test_fig3_parallel_parity () =
  let rows domains =
    H.Fig3.run ~apps:[ "ocean"; "em3d" ] ~scale:0.05 ~nodes:4 ~domains ()
  in
  let seq = rows 0 in
  check_int "rows" 2 (List.length seq);
  check_bool "parallel rows bit-identical" true (seq = rows 2)

let test_faultsweep_parallel_parity () =
  let sweep domains =
    H.Faultsweep.run ~apps:[ "em3d"; "mp3d" ] ~drops:[ 0.05 ] ~seeds:[ 1 ]
      ~scale:0.05 ~nodes:4 ~domains ()
  in
  let seq = sweep 0 in
  check_int "grid size" 2 (List.length seq);
  check_bool "every cell passed" true (H.Faultsweep.all_passed seq);
  check_bool "parallel sweep bit-identical" true (seq = sweep 2)

let test_torture_parallel_parity () =
  let module T = Tt_torture.Torture in
  let cases =
    T.grid
      ~litmus:[ "SB"; "MP" ]
      ~machines:[ "stache" ] ~drops:[ 0.0 ] ~seeds:[ 1; 2 ] ~iters:2
      ~perturb_rate:0.25 ()
  in
  let seq = T.run_grid cases in
  check_bool "grid has cases" true (List.length seq > 0);
  check_bool "parallel grid bit-identical" true (seq = T.run_grid ~domains:3 cases)

(* A whole machine simulation must be domain-relocatable: running the same
   pinned round trip inside a fresh Domain.spawn (fresh DLS: message-pool
   freelists, scratch arrays) must cost the identical simulated cycles. *)
let round_trip () =
  let params = { Params.default with Params.nodes = 4 } in
  let machine = H.Machine.typhoon_stache params in
  let base = ref 0 in
  let r =
    H.Run.spmd machine ~name:"relocate" ~check:false (fun env ->
        if env.Tt_app.Env.proc = 0 then
          base := env.Tt_app.Env.alloc ~home:0 512;
        env.Tt_app.Env.barrier ();
        if env.Tt_app.Env.proc = 1 then
          for w = 0 to 63 do
            ignore (env.Tt_app.Env.read (!base + (w * 8)))
          done)
  in
  r.H.Run.cycles

let test_machine_sim_domain_relocatable () =
  let here = round_trip () in
  let there = Domain.join (Domain.spawn round_trip) in
  check_int "identical cycles on a worker domain" here there;
  (* and concurrently with the main domain also simulating *)
  let d = Domain.spawn round_trip in
  let here2 = round_trip () in
  let there2 = Domain.join d in
  check_int "identical cycles under concurrent simulations (main)" here here2;
  check_int "identical cycles under concurrent simulations (worker)" here
    there2

let () =
  Alcotest.run "parallel"
    [
      ( "domains",
        [
          Alcotest.test_case "map keeps input order" `Quick
            test_map_input_order;
          Alcotest.test_case "map re-raises earliest failure" `Quick
            test_map_earliest_failure;
          Alcotest.test_case "map of an empty list" `Quick test_map_empty;
        ] );
      ( "harness",
        [
          Alcotest.test_case "scaling sweep parity" `Slow
            test_scaling_parallel_parity;
          Alcotest.test_case "fig3 rows parity" `Slow
            test_fig3_parallel_parity;
          Alcotest.test_case "fault sweep parity" `Slow
            test_faultsweep_parallel_parity;
          Alcotest.test_case "torture grid parity" `Slow
            test_torture_parallel_parity;
          Alcotest.test_case "machine sim is domain-relocatable" `Quick
            test_machine_sim_domain_relocatable;
        ] );
    ]
