(* The §4 story: custom user-level protocols pay.

   Runs the same EM3D program on three machines —

     dirnnb   all-hardware directory coherence,
     stache   Typhoon with the transparent Stache protocol,
     update   Typhoon with the EM3D delayed-update protocol installed —

   and prints cycles and message traffic.  The application code is
   identical; under "update" the value arrays land on custom pages and the
   steady-state barriers become the protocol's flush-and-wait.

     dune exec examples/em3d_custom.exe *)

module Machine = Tt_harness.Machine
module Catalog = Tt_harness.Catalog
module Run = Tt_harness.Run
module Em3d = Tt_app.Em3d

let () =
  let nodes = 16 in
  let cfg =
    { Em3d.total_nodes = 8000; degree = 8; pct_remote = 40; iters = 4;
      seed = 2024;
      software_prefetch = false }
  in
  Printf.printf
    "EM3D: %d graph nodes, degree %d, %d%% non-local edges, %d iterations, \
     %d processors\n\n"
    cfg.Em3d.total_nodes cfg.Em3d.degree cfg.Em3d.pct_remote cfg.Em3d.iters
    nodes;
  let params = { Params.default with Params.nodes = nodes } in
  (* every machine must produce the oracle's values: [Run.verified] raises
     on the first mismatch *)
  let results =
    List.map
      (fun name ->
        ( name,
          Run.verified (Machine.of_name name params)
            (Catalog.em3d cfg ~nprocs:nodes) ))
      [ "dirnnb"; "stache"; "update" ]
  in
  let base_cycles =
    match results with (_, r) :: _ -> r.Run.cycles | [] -> assert false
  in
  Printf.printf "%-8s %12s %9s %10s %10s\n" "machine" "cycles" "vs dirnnb"
    "messages" "words";
  List.iter
    (fun (label, (r : Run.result)) ->
      let s = r.Run.run_stats in
      let msgs =
        Tt_util.Stats.get s "msgs.request" + Tt_util.Stats.get s "msgs.response"
      in
      let words =
        Tt_util.Stats.get s "words.request"
        + Tt_util.Stats.get s "words.response"
      in
      Printf.printf "%-8s %12d %8.0f%% %10d %10d\n" label r.Run.cycles
        (100.0 *. float_of_int r.Run.cycles /. float_of_int base_cycles)
        msgs words)
    results;
  print_newline ();
  print_endline
    "The update protocol eliminates the fetch/invalidate/re-fetch cycle: one \
     update message per remote copy per step, no acknowledgments (results \
     verified against the sequential oracle on all three machines)."
