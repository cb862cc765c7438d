(* tt — command-line driver for the Tempest/Typhoon reproduction.

   Subcommands:
     tt run     run one benchmark on one machine and report cycles/stats
     tt profile the same run under a sampling host-time profiler
     tt fig3    reproduce Figure 3 (Typhoon/Stache vs DirNNB)
     tt fig4    reproduce Figure 4 (EM3D update protocol)
     tt scale   64/128/256-node scaling sweep of the Figure 3 apps
     tt tables  print Tables 1-3 as implemented
     tt list    list benchmarks and machines *)

open Cmdliner
module H = Tt_harness

(* --- common options --- *)

let nodes_t =
  Arg.(value & opt int 32 & info [ "n"; "nodes" ] ~doc:"Number of nodes.")

let scale_t =
  Arg.(
    value & opt float 1.0
    & info [ "scale" ]
        ~doc:"Data-set scale factor (1.0 = the paper's Table 3 sizes).")

let verify_t =
  Arg.(
    value & flag
    & info [ "verify" ]
        ~doc:"After each run, check results against the sequential oracle.")

let seed_t = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.")

(* a choice among catalogue names, each parsed as itself *)
let names_conv names = Arg.enum (List.map (fun n -> (n, n)) names)

(* the sweeps' defaults: a quarter of the Table 3 data sets on 8 nodes *)
let sweep_scale_t =
  Arg.(
    value & opt float 0.25
    & info [ "scale" ] ~doc:"Data-set scale factor (default 0.25).")

let sweep_nodes_t =
  Arg.(value & opt int 8 & info [ "n"; "nodes" ] ~doc:"Number of nodes.")

let cache_t =
  Arg.(
    value & opt int 256
    & info [ "cache" ] ~doc:"CPU cache size in KB (default 256).")

let apps_t names =
  Arg.(
    value
    & opt (list (names_conv names)) names
    & info [ "apps" ] ~doc:"Comma-separated benchmark subset.")

(* the worker-domain count.  A parallel count is noted on stderr, so gate
   scripts can diff stdout across --domains values. *)
let domains_t =
  let check d =
    if d < 0 then invalid_arg (Printf.sprintf "--domains %d: must be >= 0" d);
    if d > 1 then Printf.eprintf "(parallel harness: %d worker domains)\n%!" d;
    d
  in
  Term.(
    const check
    $ Arg.(
        value & opt int 0
        & info [ "domains" ]
            ~doc:
              "Worker domains for the figure and sweep grids: independent \
               grid cells run concurrently, one simulation per cell \
               (default 0 = sequential).  Simulated cycles, stats and \
               tables are bit-identical at every value; only wall-clock \
               changes."))

(* every catalogue machine parses; [names] is the list the help offers, so
   a command that refuses some machines says so with its own one-line error *)
let machine_t ~names =
  Arg.(
    value
    & opt (names_conv H.Machine.names) "stache"
    & info [ "m"; "machine" ]
        ~doc:("Machine: " ^ String.concat ", " names ^ "."))

(* a sweep's argument check failed before any run: one line, exit 1 *)
let refuse cmd msg =
  Printf.eprintf "tt %s: %s\n" cmd msg;
  exit 1

(* [TT_BENCH_JSON], when set, names a file to write [json] to *)
let write_bench_json what json =
  match Sys.getenv_opt "TT_BENCH_JSON" with
  | Some path ->
      let oc = open_out path in
      output_string oc json;
      close_out oc;
      Printf.printf "(wrote %s to %s)\n" what path
  | None -> ()

(* --- tt run --- *)

let proto_conv =
  let parse s =
    if List.mem s H.Catalog.protocols then Ok s
    else
      Error
        (`Msg
          (Printf.sprintf "unknown protocol %S (valid: %s)" s
             (String.concat ", " H.Catalog.protocols)))
  in
  Arg.conv (parse, Format.pp_print_string)

(* [tt run]'s arguments, evaluated to the run itself so [tt profile] can
   sample exactly the same cell. *)
let run_cell_t =
  let app_t =
    Arg.(
      required
      & pos 0 (some (names_conv H.Catalog.all_names)) None
      & info [] ~docv:"APP" ~doc:"Benchmark to run.")
  in
  let size_t =
    Arg.(
      value
      & opt (enum [ ("small", H.Catalog.Small); ("large", H.Catalog.Large) ])
          H.Catalog.Small
      & info [ "size" ] ~doc:"Data set: small or large.")
  in
  let stats_t =
    Arg.(value & flag & info [ "stats" ] ~doc:"Dump all statistics counters.")
  in
  let run app machine_name size cache_kb nodes scale seed verify stats () =
    let params =
      { Params.default with Params.nodes; seed;
        cpu_cache_bytes = cache_kb * 1024 }
    in
    let machine = H.Machine.of_name machine_name params in
    let inst = H.Catalog.make ~name:app ~size ~scale ~nprocs:nodes in
    let r =
      if verify then H.Run.verified machine inst
      else H.Run.spmd machine ~name:app inst.H.Catalog.body
    in
    if verify then
      Printf.printf "verification against the sequential oracle: OK\n";
    Printf.printf "%s (%s, %s) on %s, %d nodes: %d cycles\n" app
      (H.Catalog.size_label size)
      (H.Catalog.data_set_description ~name:app ~size ~scale)
      machine_name nodes r.H.Run.cycles;
    let taken = Tt_util.Stats.get r.H.Run.run_stats "suspensions_taken"
    and elided = Tt_util.Stats.get r.H.Run.run_stats "suspensions_elided" in
    if taken + elided > 0 then
      Printf.printf
        "suspensions: %d taken, %d elided (%.1f%% suspension-free)\n" taken
        elided
        (100.0 *. float_of_int elided /. float_of_int (taken + elided));
    let spilled = Tt_util.Stats.get r.H.Run.run_stats "flow.spilled"
    and blocked = Tt_util.Stats.get r.H.Run.run_stats "flow.blocked" in
    if spilled + blocked > 0 then
      Printf.printf
        "flow control: %d handler sends spilled, %d CPU sends blocked (peak \
         %d parked)\n"
        spilled blocked
        (Tt_util.Stats.get r.H.Run.run_stats "flow.peak_queued");
    let switches = Tt_util.Stats.get r.H.Run.run_stats "switches" in
    if switches > 0 then
      Printf.printf "adaptive protocol switches: %d\n" switches;
    if stats then
      Format.printf "%a@." Tt_util.Stats.pp r.H.Run.run_stats
  in
  Term.(
    const run $ app_t $ machine_t ~names:H.Machine.names $ size_t $ cache_t
    $ nodes_t $ scale_t $ seed_t $ verify_t $ stats_t)

let run_cmd =
  let doc = "Run one benchmark on one machine." in
  Cmd.v (Cmd.info "run" ~doc) Term.(const (fun run -> run ()) $ run_cell_t)

(* --- tt profile --- *)

let profile_cmd =
  let profile run =
    let (), p = H.Profile.sample run in
    Format.printf "@.%a" H.Profile.pp p
  in
  let doc =
    "Run one cell as $(b,tt run) does (same arguments, same output) under a \
     wall-clock sampling profiler, then report where the host time went: by \
     CPU fiber versus engine event, by function and by module."
  in
  Cmd.v (Cmd.info "profile" ~doc) Term.(const profile $ run_cell_t)

(* --- tt fig3 --- *)

let fig3_cmd =
  let run apps nodes scale verify domains =
    print_string
      (H.Fig3.render (H.Fig3.run ~apps ~scale ~nodes ~verify ~domains ()))
  in
  let doc = "Reproduce Figure 3 (Typhoon/Stache vs DirNNB)." in
  Cmd.v (Cmd.info "fig3" ~doc)
    Term.(
      const run $ apps_t H.Catalog.names $ nodes_t $ scale_t $ verify_t
      $ domains_t)

(* --- tt fig4 --- *)

let fig4_cmd =
  let pcts_t =
    Arg.(
      value
      & opt (list int) [ 0; 10; 20; 30; 40; 50 ]
      & info [ "pcts" ] ~doc:"Percentages of non-local edges to sweep.")
  in
  let run pcts nodes scale verify domains =
    print_string
      (H.Fig4.render (H.Fig4.run ~pcts ~scale ~nodes ~verify ~domains ()))
  in
  let doc = "Reproduce Figure 4 (EM3D custom update protocol)." in
  Cmd.v (Cmd.info "fig4" ~doc)
    Term.(const run $ pcts_t $ nodes_t $ scale_t $ verify_t $ domains_t)

(* --- tt sweep --- *)

let sweep_cmd =
  let pcts_t =
    Arg.(
      value
      & opt (list int) [ 0; 20; 40; 60; 80 ]
      & info [ "remote" ] ~doc:"Remote-access percentages to sweep.")
  in
  let writes_t =
    Arg.(
      value & opt int 30 & info [ "writes" ] ~doc:"Write percentage (0-100).")
  in
  let contended_t =
    Arg.(
      value & flag
      & info [ "contended" ]
          ~doc:
            "Use lock-protected remote counters (migratory sharing) instead \
             of read-only remote sharing.")
  in
  let run pcts write_pct contended nodes seed =
    let table =
      Tt_util.Tablefmt.create
        ~title:
          (Printf.sprintf
             "synthetic workload sweep (%d nodes, %d%% writes, %s sharing): \
              cycles"
             nodes write_pct
             (if contended then "locked-counter" else "private-write"))
        ~columns:
          [ ("% remote", Tt_util.Tablefmt.Right);
            ("DirNNB", Tt_util.Tablefmt.Right);
            ("Typhoon/Stache", Tt_util.Tablefmt.Right);
            ("ratio", Tt_util.Tablefmt.Right) ]
    in
    List.iter
      (fun remote_pct ->
        let app =
          H.Catalog.synth ~name:"synth"
            { Tt_app.Synth.default with
              Tt_app.Synth.remote_pct; write_pct; seed;
              sharing =
                (if contended then Tt_app.Synth.Locked_counters
                 else Tt_app.Synth.Private_writes) }
        in
        let cycles machine =
          (H.Run.cell ~verify:true
             (app, machine, { Params.default with Params.nodes; seed }))
            .H.Run.cycles
        in
        let d = cycles "dirnnb" in
        let st = cycles "stache" in
        Tt_util.Tablefmt.add_row table
          [ string_of_int remote_pct; string_of_int d; string_of_int st;
            Printf.sprintf "%.2f" (float_of_int st /. float_of_int d) ])
      pcts;
    Tt_util.Tablefmt.print table
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Explore the design space with the synthetic workload generator: \
          sweep the remote-access fraction on both machines (results are \
          verified against the generator's oracle).")
    Term.(const run $ pcts_t $ writes_t $ contended_t $ nodes_t $ seed_t)

(* --- tt scale --- *)

let scale_cmd =
  let nodes_list_t =
    Arg.(
      value
      & opt (list int) H.Scaling.default_nodes
      & info [ "n"; "nodes" ] ~doc:"Comma-separated node counts to sweep.")
  in
  let proto_t =
    Arg.(
      value
      & opt (some proto_conv) None
      & info [ "proto" ] ~docv:"PROTO"
          ~doc:
            ("Coherence protocol for the Typhoon machine: "
            ^ String.concat ", " H.Catalog.protocols ^ "."))
  in
  let run apps proto nodes scale cache_kb domains =
    let proto = Option.value proto ~default:"stache" in
    let points =
      H.Scaling.run ~apps ~proto ~nodes ~scale ~cache_kb ~domains ()
    in
    print_string (H.Scaling.render ~proto points);
    (* host-dependent: kept out of the table so gates can diff it *)
    Printf.printf "(sweep host CPU: %.1fs)\n" (H.Scaling.total_cpu_s points);
    write_bench_json "scaling points" (H.Scaling.to_json points)
  in
  let doc =
    "Scaling sweep: run the Figure 3 benchmarks on both machines at 64, 128 \
     and 256 nodes (the paper stops at 32) and report simulated cycles and \
     the Typhoon/Stache-to-DirNNB ratio per node count.  Set \
     $(b,TT_BENCH_JSON) to also write the points as JSON."
  in
  Cmd.v (Cmd.info "scale" ~doc)
    Term.(
      const run $ apps_t H.Catalog.names $ proto_t $ nodes_list_t
      $ sweep_scale_t $ cache_t $ domains_t)

(* --- tt proto --- *)

let proto_cmd =
  let protos_t =
    Arg.(
      value
      & opt (list proto_conv) H.Catalog.protocols
      & info [ "protos" ] ~doc:"Comma-separated protocol subset.")
  in
  let nodes_list_t =
    Arg.(
      value
      & opt (list int) H.Protozoo.default_nodes
      & info [ "n"; "nodes" ] ~doc:"Comma-separated node counts to sweep.")
  in
  let tolerance_t =
    Arg.(
      value & opt float 5.0
      & info [ "tolerance" ]
          ~doc:
            "Adaptive gate: maximum percent by which adaptive may exceed \
             the best static protocol at any grid point (default 5).")
  in
  let run apps protos nodes scale cache_kb tolerance domains =
    let cells =
      H.Protozoo.run ~apps ~protos ~nodes ~scale ~cache_kb ~domains ()
    in
    print_string (H.Protozoo.render cells);
    Printf.printf "(shootout host CPU: %.1fs)\n" (H.Protozoo.total_cpu_s cells);
    write_bench_json "shootout cells" (H.Protozoo.to_json cells);
    match H.Protozoo.adaptive_regressions ~tolerance:(tolerance /. 100.0) cells
    with
    | [] ->
        if List.mem "adaptive" protos then
          Printf.printf
            "adaptive is within %.0f%% of the best static protocol at every \
             grid point\n"
            tolerance
    | regressions ->
        List.iter (Printf.printf "ADAPTIVE REGRESSION: %s\n") regressions;
        exit 1
  in
  let doc =
    "Protocol shootout: run the app x protocol x node-count grid (Figure \
     3/4 apps plus synthetic migratory and producer-consumer companions \
     over the protocol zoo), verify every cell against its sequential \
     oracle, and gate adaptive per-page switching against the best static \
     protocol.  Set $(b,TT_BENCH_JSON) to also write the cells as JSON."
  in
  Cmd.v (Cmd.info "proto" ~doc)
    Term.(
      const run $ apps_t H.Catalog.all_names $ protos_t $ nodes_list_t
      $ sweep_scale_t $ cache_t $ tolerance_t $ domains_t)

(* --- tt verify --- *)

let verify_cmd =
  let run nodes scale =
    let failures = ref 0 in
    List.iter
      (fun app ->
        List.iter
          (fun machine ->
            let status =
              match
                H.Run.cell ~verify:true
                  ( H.Catalog.make ~name:app ~size:H.Catalog.Small ~scale,
                    machine,
                    { Params.default with Params.nodes } )
              with
              | m -> Printf.sprintf "OK (%d cycles)" m.H.Run.cycles
              | exception e ->
                  incr failures;
                  "FAILED: " ^ Printexc.to_string e
            in
            Printf.printf "  %-8s on %-9s %s\n%!" app machine status)
          H.Machine.names)
      H.Catalog.names;
    if !failures = 0 then
      print_endline "all benchmarks match their sequential oracles on every \
                     machine"
    else begin
      Printf.printf "%d failures\n" !failures;
      exit 1
    end
  in
  let scale_small =
    Arg.(
      value & opt float 0.1
      & info [ "scale" ] ~doc:"Data-set scale factor (default 0.1).")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Self-test: run every benchmark on every machine and check the \
          results against the sequential oracles.")
    Term.(const run $ nodes_t $ scale_small)

(* --- tt ablations --- *)

let ablations_cmd =
  let run nodes = print_string (H.Ablations.render_all ~nodes ()) in
  Cmd.v
    (Cmd.info "ablations"
       ~doc:
         "Run the design-choice ablations: limited-pointer directory, \
          network contention, message barrier, software prefetch.")
    Term.(const run $ nodes_t)

(* --- tt tables --- *)

let tables_cmd =
  let run () = print_string (H.Tables.all ()) in
  Cmd.v (Cmd.info "tables" ~doc:"Print Tables 1-3 as implemented.")
    Term.(const run $ const ())

(* --- tt list --- *)

(* --- tt faults --- *)

let faults_cmd =
  let drops_t =
    Arg.(
      value
      & opt (list float) [ 1.0; 5.0 ]
      & info [ "drops" ]
          ~doc:"Comma-separated per-message drop rates, in percent.")
  in
  let seeds_t =
    Arg.(
      value
      & opt (list int) [ 1; 2; 3 ]
      & info [ "seeds" ] ~doc:"Comma-separated fault-model seeds.")
  in
  let req_drop_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "request-drop" ]
          ~doc:
            "Drop rate for request-network traffic only, in percent \
             (overrides the $(b,--drops) axis on that vnet; dup/reorder \
             rates follow it).")
  in
  let resp_drop_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "response-drop" ]
          ~doc:
            "Drop rate for response-network traffic only, in percent \
             (overrides the $(b,--drops) axis on that vnet; dup/reorder \
             rates follow it).")
  in
  let burst_t =
    Arg.(
      value & flag
      & info [ "burst" ]
          ~doc:
            "Gilbert\xE2\x80\x93Elliott bursty loss: each link is a two-state \
             Markov chain; the bad state concentrates the configured rates \
             into bursts (clean good state, 10\xC3\x97 bad state, mean burst \
             length 4 sends).")
  in
  let credits_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "credits" ]
          ~doc:
            "Flow-control credits per (src,dst,vnet) for the faulty runs \
             (default: ample). Small values exercise the \xC2\xA75.1 \
             overflow/backpressure path.")
  in
  let spill_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "spill" ]
          ~doc:
            "Per-node overflow-buffer capacity for the faulty runs (default: \
             ample). Overflowing it aborts that grid cell with a diagnostic \
             instead of buffering without bound.")
  in
  let crash_t =
    let modes =
      [ ("none", None); ("never", Some H.Recovery.Never);
        ("quick", Some H.Recovery.Quick); ("late", Some H.Recovery.Late) ]
    in
    Arg.(
      value
      & opt (list (enum modes)) [ None ]
      & info [ "crash" ]
          ~doc:
            "Comma-separated crash axis for the grid (crashes \xC3\x97 drops \
             \xC3\x97 seeds): $(b,none) for message faults only, or \
             $(b,never)/$(b,quick)/$(b,late) to additionally crash-stop node \
             0 at 40% of the baseline runtime with that rejoin window; such \
             cells run under the full recovery stack and report how they \
             were brought to verified results.")
  in
  let run apps machine drops seeds crashes request_drop response_drop burst
      credits spill nodes scale domains =
    let pct = Option.map (fun p -> p /. 100.0) in
    let drops = List.map (fun p -> p /. 100.0) drops in
    let burst = if burst then Some (Tt_net.Faults.bursty ()) else None in
    let points =
      try
        H.Faultsweep.run ~apps ~machine ~drops ~seeds ~crashes
          ?request_drop:(pct request_drop) ?response_drop:(pct response_drop)
          ?burst ?credits ?spill ~scale ~nodes ~domains ()
      with Invalid_argument msg -> refuse "faults" msg
    in
    print_string (H.Faultsweep.render points);
    print_newline ();
    if H.Faultsweep.all_passed points then
      print_endline
        "all runs completed with results identical to the fault-free oracle"
    else begin
      print_endline "FAILURES above";
      exit 1
    end
  in
  let doc =
    "Fault sweep: run benchmarks over a lossy fabric (drop/duplicate/reorder \
     injection) behind the user-level reliable transport, verifying results \
     against the fault-free oracle and reporting retransmit overhead."
  in
  Cmd.v (Cmd.info "faults" ~doc)
    Term.(
      const run $ apps_t H.Catalog.names $ machine_t ~names:H.Machine.names
      $ drops_t $ seeds_t $ crash_t $ req_drop_t $ resp_drop_t $ burst_t
      $ credits_t $ spill_t $ sweep_nodes_t $ sweep_scale_t $ domains_t)

(* --- tt recover --- *)

let recover_cmd =
  let victims_t =
    Arg.(
      value
      & opt (list int) [ 0; 3 ]
      & info [ "victims" ] ~doc:"Comma-separated crash victims (node ranks).")
  in
  let crash_t =
    Arg.(
      value
      & opt (list float) [ 40.0 ]
      & info [ "crash-at" ]
          ~doc:
            "Comma-separated crash times, as percent of the app's \
             fault-free baseline cycles.")
  in
  let rejoins_t =
    let modes =
      [ ("never", H.Recovery.Never); ("quick", H.Recovery.Quick);
        ("late", H.Recovery.Late) ]
    in
    Arg.(
      value
      & opt (list (enum modes)) [ H.Recovery.Never; H.Recovery.Quick;
                                  H.Recovery.Late ]
      & info [ "rejoin" ]
          ~doc:
            "Comma-separated rejoin modes: $(b,never) (crash-stop \
             forever), $(b,quick) (window below the detection lease \
             \xE2\x80\x94 expect masking), $(b,late) (well past it \
             \xE2\x80\x94 expect re-homing).")
  in
  let seeds_t =
    Arg.(
      value & opt (list int) [ 1 ]
      & info [ "seeds" ] ~doc:"Comma-separated fault-model seeds.")
  in
  let run apps machine victims crash_pcts rejoins seeds nodes scale domains =
    let crash_fracs = List.map (fun p -> p /. 100.0) crash_pcts in
    let points =
      try
        H.Recovery.run ~apps ~machine ~victims ~crash_fracs ~rejoins ~seeds
          ~scale ~nodes ~domains ()
      with Invalid_argument msg -> refuse "recover" msg
    in
    print_string (H.Recovery.render points);
    print_newline ();
    if H.Recovery.all_passed points then
      print_endline
        "all cells ended in verified results (in place or after rollback) \
         or a diagnosed abort"
    else begin
      print_endline "FAILURES above";
      exit 1
    end
  in
  let doc =
    "Crash-stop recovery sweep: crash a node mid-run (lease/heartbeat \
     detection, page re-homing, checkpoint restore or rollback) and verify \
     every cell against the fault-free oracle."
  in
  Cmd.v (Cmd.info "recover" ~doc)
    Term.(
      const run $ apps_t H.Catalog.names
      $ machine_t ~names:(H.Machine.recoverable ())
      $ victims_t $ crash_t $ rejoins_t $ seeds_t $ sweep_nodes_t
      $ sweep_scale_t $ domains_t)

(* --- tt torture --- *)

let torture_cmd =
  let module T = Tt_torture.Torture in
  let module L = Tt_torture.Litmus in
  let litmus_t =
    Arg.(
      value
      & opt (list (names_conv L.names)) L.names
      & info [ "litmus" ]
          ~doc:"Comma-separated litmus shapes (default: all).")
  in
  let machines_t =
    Arg.(
      value
      & opt
          (list (names_conv (List.filter (( <> ) "update") H.Machine.names)))
          T.machines
      & info [ "machines" ]
          ~doc:
            "Comma-separated machines (default: stache,dirnnb; every other \
             machine but update, whose protocol assumes owners-compute, is \
             also accepted).")
  in
  let drops_t =
    Arg.(
      value
      & opt (list float) [ 0.0; 5.0 ]
      & info [ "drops" ]
          ~doc:
            "Comma-separated drop rates in percent (0 = perfect transport).")
  in
  let seeds_t =
    Arg.(
      value
      & opt (list int) T.default_seeds
      & info [ "seeds" ] ~doc:"Comma-separated seeds.")
  in
  let iters_t =
    Arg.(
      value & opt int 4
      & info [ "iters" ] ~doc:"Litmus iterations per case.")
  in
  let perturb_t =
    Arg.(
      value & opt float 0.25
      & info [ "perturb-rate" ]
          ~doc:
            "Probability that a scheduling decision gets a non-FIFO \
             tie-break salt (0 disables perturbation).")
  in
  let no_shrink_t =
    Arg.(
      value & flag
      & info [ "no-shrink" ] ~doc:"Report violations without shrinking.")
  in
  let smoke_t =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Run the default smoke grid (all litmus shapes x both machines \
             x {perfect, 5% drop} x 8 seeds), overriding any grid-axis \
             flags.  This is also the default when no axis flags are given; \
             the flag pins the grid for scripted gates.")
  in
  let out_t =
    Arg.(
      value
      & opt string "torture-repro.txt"
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Where to write the shrunk reproducer artifact.")
  in
  let table_t =
    Arg.(
      value & flag
      & info [ "table" ] ~doc:"Print the full per-case result table.")
  in
  let replay_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay a reproducer artifact instead of running the grid; \
             exits 0 when the recorded violation reproduces.")
  in
  let run litmus machines drops seeds iters perturb_rate no_shrink smoke out
      table replay domains =
    let litmus, machines, drops, seeds, iters, perturb_rate =
      if smoke then
        (L.names, T.machines, [ 0.0; 5.0 ], T.default_seeds, 4, 0.25)
      else (litmus, machines, drops, seeds, iters, perturb_rate)
    in
    match replay with
    | Some path ->
        let case, expected, r = T.replay path in
        Printf.printf "replaying %s: %s on %s, expecting a %s violation\n"
          path case.T.litmus case.T.machine
          (T.kind_to_string expected);
        (match r.T.outcome with
        | T.Fail v when v.T.kind = expected ->
            Printf.printf "reproduced: [%s] %s\n" (T.kind_to_string v.T.kind)
              v.T.detail
        | T.Fail v ->
            Printf.printf
              "DIVERGED: got [%s] %s instead of the recorded [%s]\n"
              (T.kind_to_string v.T.kind) v.T.detail
              (T.kind_to_string expected);
            exit 1
        | T.Pass ->
            Printf.printf "DID NOT REPRODUCE: the replay passed\n";
            exit 1)
    | None ->
        let drops = List.map (fun p -> p /. 100.0) drops in
        (* TT_SABOTAGE=1 seeds Stache's coherence bug in every case: the
           self-check that the grid catches and shrinks a real violation *)
        let sabotage =
          match Sys.getenv_opt "TT_SABOTAGE" with
          | Some ("1" | "true" | "yes") -> true
          | Some _ | None -> false
        in
        let cases =
          T.grid ~litmus ~machines ~drops ~seeds ~iters ~perturb_rate
            ~sabotage ()
        in
        let results = T.run_grid ~domains cases in
        let failed = T.failures results in
        if table then print_string (T.render results)
        else if failed <> [] then print_string (T.render failed);
        Printf.printf
          "torture grid: %d cases (%d litmus x %d machines x %d drops x %d \
           seeds), %d passed, %d violations\n"
          (List.length results) (List.length litmus) (List.length machines)
          (List.length drops) (List.length seeds)
          (List.length results - List.length failed)
          (List.length failed);
        if failed <> [] then begin
          (match failed with
          | (c, _) :: _ when not no_shrink -> (
              Printf.printf "shrinking the first violating case (%s on %s)…\n%!"
                c.T.litmus c.T.machine;
              match T.shrink c with
              | Error msg -> Printf.printf "shrink failed: %s\n" msg
              | Ok s ->
                  Printf.printf
                    "shrunk: %d -> %d fault sites, %d -> %d perturbation \
                     sites, %d -> %d iterations\n"
                    s.T.s_fault_before s.T.s_fault_after s.T.s_perturb_before
                    s.T.s_perturb_after s.T.s_iters_before s.T.s_case.T.iters;
                  Printf.printf "violation: [%s] %s\n"
                    (T.kind_to_string s.T.s_violation.T.kind)
                    s.T.s_violation.T.detail;
                  T.write_artifact out s;
                  Printf.printf "reproducer written to %s\n" out;
                  let _, expected, r = T.replay out in
                  (match r.T.outcome with
                  | T.Fail v when v.T.kind = expected ->
                      Printf.printf
                        "replay verified: tt torture --replay %s reproduces \
                         the violation\n"
                        out
                  | _ -> Printf.printf "WARNING: replay did not reproduce\n"))
          | _ -> ());
          exit 1
        end
  in
  let doc =
    "Consistency torture: run the litmus grid (SB/MP/LB/CoRR/CoWW/IRIW/LOCK \
     x machines x transports x seeds) under schedule perturbation and fault \
     injection, check every outcome against the SC oracle, and shrink any \
     violation to a minimal deterministic reproducer."
  in
  Cmd.v (Cmd.info "torture" ~doc)
    Term.(
      const run $ litmus_t $ machines_t $ drops_t $ seeds_t $ iters_t
      $ perturb_t $ no_shrink_t $ smoke_t $ out_t $ table_t $ replay_t
      $ domains_t)

let list_cmd =
  let run () =
    Printf.printf "benchmarks: %s\nmachines:   %s\nprotocols:  %s\n"
      (String.concat ", " H.Catalog.all_names)
      (String.concat ", " H.Machine.names)
      (String.concat ", " H.Catalog.protocols)
  in
  Cmd.v (Cmd.info "list" ~doc:"List benchmarks, machines and protocols.")
    Term.(const run $ const ())

let () =
  let doc = "Tempest & Typhoon: user-level shared memory (reproduction)" in
  let info = Cmd.info "tt" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info
       [ run_cmd; profile_cmd; fig3_cmd; fig4_cmd; tables_cmd; ablations_cmd;
         sweep_cmd; scale_cmd; proto_cmd; faults_cmd; recover_cmd;
         torture_cmd; verify_cmd; list_cmd ]))
