(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, then runs Bechamel micro-benchmarks (one Test.make per
   table/figure plus the DESIGN.md ablations).

   Environment knobs (all optional):
     TT_BENCH_SCALE   data-set scale factor for the figures (default 0.5)
     TT_BENCH_NODES   simulated nodes for the figures    (default 32)
     TT_BENCH_FAST    set to 1 to skip the full figure reproduction
     TT_BENCH_JSON    path: also write the micro-benchmark ns/run
                      estimates as a JSON object to this file *)

module H = Tt_harness
open Bechamel
open Toolkit

let getenv_float name default =
  match Sys.getenv_opt name with
  | Some s -> (try float_of_string s with Failure _ -> default)
  | None -> default

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some s -> (try int_of_string s with Failure _ -> default)
  | None -> default

let scale = getenv_float "TT_BENCH_SCALE" 0.5

let nodes = getenv_int "TT_BENCH_NODES" 32

let fast = Sys.getenv_opt "TT_BENCH_FAST" = Some "1"

(* ------------------------------------------------------------------ *)
(* Paper reproduction: the real tables and figures                      *)
(* ------------------------------------------------------------------ *)

let reproduce_figures () =
  Printf.printf
    "data-set scale %.2f, %d nodes (TT_BENCH_SCALE / TT_BENCH_NODES to \
     change)\n\n%!"
    scale nodes;
  print_string (H.Tables.all ());
  print_newline ();
  let t0 = Unix.gettimeofday () in
  let rows = H.Fig3.run ~scale ~nodes () in
  print_string (H.Fig3.render rows);
  Printf.printf "(figure 3 wall-clock: %.0fs)\n\n%!"
    (Unix.gettimeofday () -. t0);
  let t0 = Unix.gettimeofday () in
  let points = H.Fig4.run ~scale ~nodes () in
  print_string (H.Fig4.render points);
  Printf.printf "(figure 4 wall-clock: %.0fs)\n\n%!"
    (Unix.gettimeofday () -. t0);
  Printf.printf
    "update-protocol advantage over DirNNB at 50%% non-local edges: %.0f%% \
     (paper: ~35%%)\n\n%!"
    (100.0 *. H.Fig4.advantage_at points 50);
  (* scaling past the paper's 32 nodes; capped at scale 0.25 so the
     256-node column stays CI-sized *)
  let t0 = Unix.gettimeofday () in
  let points = H.Scaling.run ~scale:(Float.min scale 0.25) () in
  print_string (H.Scaling.render points);
  Printf.printf "(scaling sweep wall-clock: %.0fs)\n\n%!"
    (Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Ablations: simulated-cycle comparisons for DESIGN.md's design choices *)
(* ------------------------------------------------------------------ *)

let ablation_summary () =
  print_endline "== Ablations (simulated cycles) ==";
  print_string (H.Ablations.render_all ~nodes:16 ());
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                            *)
(* ------------------------------------------------------------------ *)

(* Table 1: the tagged-block operations on a live Typhoon endpoint. *)
let bench_table1 =
  let engine = Tt_sim.Engine.create () in
  let sys =
    Tt_typhoon.System.create engine { Params.default with Params.nodes = 2 }
  in
  let ep = Tt_typhoon.System.endpoint sys 0 in
  let va = 0x5000 * Tt_mem.Addr.page_size in
  ep.Tempest.map_page ~vpage:(Tt_mem.Addr.page_of va) ~home:0 ~mode:0
    ~init_tag:Tt_mem.Tag.Read_write;
  Test.make ~name:"table1_tag_operations"
    (Staged.stage (fun () ->
         ep.Tempest.set_ro ~vaddr:va;
         ignore (ep.Tempest.read_tag ~vaddr:va);
         ep.Tempest.set_rw ~vaddr:va;
         ep.Tempest.force_write_f64 ~vaddr:va 1.0;
         ignore (ep.Tempest.force_read_f64 ~vaddr:va)))

(* Table 2: the modelled memory-hierarchy primitives (cache + TLB). *)
let bench_table2 =
  let prng = Tt_util.Prng.create ~seed:1 in
  let cache =
    Tt_cache.Cache.create ~size_bytes:(256 * 1024) ~assoc:4 ~prng ()
  in
  let tlb = Tt_mem.Tlb.create ~miss_penalty:25 () in
  let i = ref 0 in
  Test.make ~name:"table2_cache_and_tlb"
    (Staged.stage (fun () ->
         incr i;
         let block = !i land 0xffff in
         (match Tt_cache.Cache.lookup cache ~block with
         | Some _ -> ()
         | None ->
             ignore
               (Tt_cache.Cache.insert cache ~block
                  ~state:Tt_cache.Cache.Shared));
         ignore (Tt_mem.Tlb.access tlb (block lsr 7))))

(* Table 3: workload construction (graph/oracle generation). *)
let bench_table3 =
  Test.make ~name:"table3_workload_generation"
    (Staged.stage (fun () ->
         ignore
           (Tt_app.Em3d.make
              { Tt_app.Em3d.total_nodes = 512; degree = 4; pct_remote = 20;
                iters = 1; seed = 3;
      software_prefetch = false }
              ~nprocs:4)))

(* Figure 3's unit event: one full block-fetch round trip between two
   nodes, on each system. *)
let fetch_round_trip make_machine =
  let params = { Params.default with Params.nodes = 2 } in
  let machine : H.Machine.t = make_machine params in
  let base = ref 0 in
  H.Run.spmd machine ~name:"roundtrip" ~check:false (fun env ->
      if env.Tt_app.Env.proc = 0 then
        base := env.Tt_app.Env.alloc ~home:0 512;
      env.Tt_app.Env.barrier ();
      if env.Tt_app.Env.proc = 1 then
        for w = 0 to 63 do
          ignore (env.Tt_app.Env.read (!base + (w * 8)))
        done)

let bench_fig3_stache =
  Test.make ~name:"fig3_block_fetch_stache"
    (Staged.stage (fun () ->
         ignore (fetch_round_trip (fun p -> H.Machine.typhoon_stache p))))

let bench_fig3_dirnnb =
  Test.make ~name:"fig3_block_fetch_dirnnb"
    (Staged.stage (fun () ->
         ignore (fetch_round_trip (fun p -> H.Machine.dirnnb p))))

(* Reliable-delivery overhead: the same round trip with the user-level
   transport active over a 5%-drop fabric (sequencing, acks, retransmit
   timers).  Compare against fig3_block_fetch_stache for the wall-clock
   cost of the reliability layer. *)
let bench_fig3_stache_reliable =
  let cfg =
    Tt_net.Faults.uniform ~seed:2026 ~drop:0.05 ~dup:0.0125 ~reorder:0.025 ()
  in
  Test.make ~name:"fig3_block_fetch_stache_reliable"
    (Staged.stage (fun () ->
         ignore
           (fetch_round_trip
              (H.Machine.typhoon_stache
                 ~reliability:(Tt_net.Reliable.Flaky cfg)))))

(* The suspension-free fast path must be timing-neutral: eliding a fiber
   suspension may never move a simulated event.  Run the pinned round
   trips with the fast path on and off and demand bit-identical cycle
   counts before benchmarking (scripts/check_all.sh runs the whole
   test suite the same way). *)
let fastpath_timing_parity () =
  let was = Tt_sim.Thread.fastpath_enabled () in
  let run on =
    Tt_sim.Thread.set_fastpath on;
    Fun.protect
      ~finally:(fun () -> Tt_sim.Thread.set_fastpath was)
      (fun () ->
        let stache =
          (fetch_round_trip (fun p -> H.Machine.typhoon_stache p)).H.Run.cycles
        in
        let dirnnb =
          (fetch_round_trip (fun p -> H.Machine.dirnnb p)).H.Run.cycles
        in
        (stache, dirnnb))
  in
  let on = run true and off = run false in
  if on <> off then begin
    Printf.eprintf
      "FATAL: the suspension fast path changed simulated timing: on %s, off \
       %s\n"
      (Printf.sprintf "(stache %d, dirnnb %d)" (fst on) (snd on))
      (Printf.sprintf "(stache %d, dirnnb %d)" (fst off) (snd off));
    exit 1
  end;
  Printf.printf
    "fastpath timing parity: OK (stache round trip %d cycles, dirnnb %d, \
     identical with TT_FASTPATH=0)\n\n%!"
    (fst on) (snd on)

(* Crash-stop recovery support must be free when nobody crashes: with no
   crash schedule configured, the liveness hooks and window checks on the
   transport's send/retransmit paths are dead branches, so the pinned
   round trips — including the reliable-transport one, where those
   branches live — must cost bit-identical cycles with recovery support
   on and off (scripts/check_all.sh runs the whole suite and the
   recover grid the same way). *)
let recovery_timing_parity () =
  let was = Tt_net.Faults.recovery_enabled () in
  let cfg =
    Tt_net.Faults.uniform ~seed:2026 ~drop:0.05 ~dup:0.0125 ~reorder:0.025 ()
  in
  let run on =
    Tt_net.Faults.set_recovery on;
    Fun.protect
      ~finally:(fun () -> Tt_net.Faults.set_recovery was)
      (fun () ->
        let stache =
          (fetch_round_trip
             (H.Machine.typhoon_stache
                ~reliability:(Tt_net.Reliable.Flaky cfg)))
            .H.Run.cycles
        in
        let dirnnb =
          (fetch_round_trip
             (H.Machine.dirnnb ~reliability:(Tt_net.Reliable.Flaky cfg)))
            .H.Run.cycles
        in
        (stache, dirnnb))
  in
  let on = run true and off = run false in
  if on <> off then begin
    Printf.eprintf
      "FATAL: crash-recovery support changed simulated timing with no crash \
       scheduled: on %s, off %s\n"
      (Printf.sprintf "(stache %d, dirnnb %d)" (fst on) (snd on))
      (Printf.sprintf "(stache %d, dirnnb %d)" (fst off) (snd off));
    exit 1
  end;
  Printf.printf
    "recovery timing parity: OK (reliable stache round trip %d cycles, \
     dirnnb %d, identical with TT_RECOVERY=0)\n\n%!"
    (fst on) (snd on)

(* The adaptive layer must be free when killed: with TT_ADAPT=0 the
   observer still counts traffic but nothing ever switches, so a run on
   the adaptive machine must cost bit-identical simulated cycles to the
   plain zoo machine with every page left on the default invalidate
   protocol (scripts/check_all.sh gates the full suite the same
   way). *)
let adaptive_parity () =
  let cycles machine_of =
    let params = { Params.default with Params.nodes = 8 } in
    let inst =
      H.Catalog.make ~name:"synthpc" ~size:H.Catalog.Small ~scale:0.25
        ~nprocs:8
    in
    (H.Run.spmd (machine_of params) ~name:"synthpc" inst.H.Catalog.body)
      .H.Run.cycles
  in
  let was = Sys.getenv_opt "TT_ADAPT" in
  Unix.putenv "TT_ADAPT" "0";
  let killed =
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv "TT_ADAPT" (Option.value was ~default:"1"))
      (fun () -> cycles H.Machine.typhoon_adaptive)
  in
  let base =
    cycles (H.Machine.typhoon_zoo ~policy:Tt_custom.Proto.Stachelike)
  in
  if killed <> base then begin
    Printf.eprintf
      "FATAL: TT_ADAPT=0 is not free: adaptive machine %d cycles, plain zoo \
       machine %d\n"
      killed base;
    exit 1
  end;
  Printf.printf
    "adaptive kill-switch parity: OK (synthpc %d cycles, identical with \
     TT_ADAPT=0 and on the plain zoo machine)\n\n%!"
    killed

(* Figure 4's unit: a tiny EM3D run under the update protocol. *)
let em3d_tiny_cfg =
  { Tt_app.Em3d.total_nodes = 256; degree = 3; pct_remote = 30; iters = 1;
    seed = 5;
    software_prefetch = false }

let bench_fig4 =
  Test.make ~name:"fig4_em3d_update_tiny"
    (Staged.stage (fun () ->
         let params = { Params.default with Params.nodes = 4 } in
         let machine = H.Machine.typhoon_em3d params in
         let inst = Tt_app.Em3d.make em3d_tiny_cfg ~nprocs:4 in
         ignore (H.Run.spmd machine ~name:"em3d" inst.Tt_app.Em3d.body)))

(* Ablations: the protocol zoo.  The migratory synthetic under the generic
   migratory protocol, and the Figure 4 EM3D unit under the zoo's generic
   update protocol (widerep) — compare against fig4_em3d_update_tiny's
   hand-written EM3D protocol for the cost of generality. *)
let bench_ablation_protocol_migratory =
  Test.make ~name:"ablation_protocol_migratory"
    (Staged.stage (fun () ->
         let params = { Params.default with Params.nodes = 4 } in
         let machine =
           H.Machine.typhoon_zoo ~policy:Tt_custom.Proto.Migratory params
         in
         let inst =
           H.Catalog.make ~name:"synthmig" ~size:H.Catalog.Small ~scale:0.25
             ~nprocs:4
         in
         ignore (H.Run.spmd machine ~name:"synthmig" inst.H.Catalog.body)))

let bench_ablation_protocol_update =
  Test.make ~name:"ablation_protocol_update"
    (Staged.stage (fun () ->
         let params = { Params.default with Params.nodes = 4 } in
         let machine =
           H.Machine.typhoon_zoo ~policy:Tt_custom.Proto.Widerep params
         in
         let inst = Tt_app.Em3d.make em3d_tiny_cfg ~nprocs:4 in
         ignore (H.Run.spmd machine ~name:"em3d" inst.Tt_app.Em3d.body)))

(* Ablation: thread suspend/resume through the poll/continuation slot
   (DESIGN.md §5c).  The wake fires during registration, so with the fast
   path on (the default) the common case completes inline without capturing
   a continuation; the _fast/_slow variants pin both modes explicitly. *)
let suspend_resume_loop () =
  let engine = Tt_sim.Engine.create () in
  let th =
    Tt_sim.Thread.spawn engine ~name:"t" (fun th ->
        for _ = 1 to 100 do
          Tt_sim.Thread.await_unit th (fun wake -> wake ())
        done)
  in
  Tt_sim.Engine.run engine;
  assert (Tt_sim.Thread.finished th)

let suspend_resume_with_fastpath on () =
  let was = Tt_sim.Thread.fastpath_enabled () in
  Tt_sim.Thread.set_fastpath on;
  Fun.protect
    ~finally:(fun () -> Tt_sim.Thread.set_fastpath was)
    suspend_resume_loop

let bench_ablation_effects =
  Test.make ~name:"ablation_effect_suspend_resume"
    (Staged.stage suspend_resume_loop)

let bench_ablation_effects_fast =
  Test.make ~name:"ablation_effect_suspend_resume_fast"
    (Staged.stage (suspend_resume_with_fastpath true))

let bench_ablation_effects_slow =
  Test.make ~name:"ablation_effect_suspend_resume_slow"
    (Staged.stage (suspend_resume_with_fastpath false))

(* Ablation: the paper's 6-pointer representation vs its bit-vector
   overflow form. *)
let bench_ablation_sharers_pointers =
  Test.make ~name:"ablation_sharers_pointer_repr"
    (Staged.stage (fun () ->
         let s = Tt_stache.Sharers.create ~nodes:32 in
         for n = 0 to 5 do
           Tt_stache.Sharers.add s n
         done;
         ignore (Tt_stache.Sharers.to_list s);
         Tt_stache.Sharers.clear s))

let bench_ablation_sharers_overflow =
  Test.make ~name:"ablation_sharers_bitvector_overflow"
    (Staged.stage (fun () ->
         let s = Tt_stache.Sharers.create ~nodes:32 in
         for n = 0 to 31 do
           Tt_stache.Sharers.add s n
         done;
         ignore (Tt_stache.Sharers.to_list s);
         Tt_stache.Sharers.clear s))

(* Ablation: event-queue throughput (the simulator's hot path): the
   engine's binary heap under a batch push then drain of dense small
   keys, the seed benchmark's shape. *)
let bench_ablation_event_queue =
  let nop () = () in
  Test.make ~name:"ablation_event_queue"
    (Staged.stage (fun () ->
         let h = Tt_util.Intheap.create ~dummy:nop () in
         for i = 0 to 255 do
           Tt_util.Intheap.push h ((i * 7919) land 1023) nop
         done;
         while not (Tt_util.Intheap.is_empty h) do
           let (_ : unit -> unit) = Tt_util.Intheap.pop_exn h in
           ()
         done))

let benchmarks =
  [ bench_table1; bench_table2; bench_table3; bench_fig3_stache;
    bench_fig3_dirnnb; bench_fig3_stache_reliable;
    bench_fig4; bench_ablation_protocol_migratory;
    bench_ablation_protocol_update;
    bench_ablation_effects; bench_ablation_effects_fast;
    bench_ablation_effects_slow;
    bench_ablation_sharers_pointers; bench_ablation_sharers_overflow;
    bench_ablation_event_queue ]

let write_json path rows =
  let oc = open_out path in
  output_string oc "{\n";
  let last = List.length rows - 1 in
  List.iteri
    (fun i (name, est) ->
      Printf.fprintf oc "  %S: %.1f%s\n" name est (if i < last then "," else ""))
    rows;
  output_string oc "}\n";
  close_out oc;
  Printf.printf "(wrote ns/run estimates to %s)\n%!" path

let run_bechamel () =
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let instances = Instance.[ monotonic_clock ] in
  print_endline "== Bechamel micro-benchmarks (ns/run) ==";
  let collected = ref [] in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg instances test
        |> Analyze.all
             (Analyze.ols ~bootstrap:0 ~r_square:true
                ~predictors:[| Measure.run |])
             Instance.monotonic_clock
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] ->
              collected := (name, est) :: !collected;
              Printf.printf "  %-40s %12.1f ns\n%!" name est
          | Some _ | None -> Printf.printf "  %-40s (no estimate)\n%!" name)
        results)
    benchmarks;
  match Sys.getenv_opt "TT_BENCH_JSON" with
  | Some path -> write_json path (List.rev !collected)
  | None -> ()

let () =
  print_endline "=== Tempest & Typhoon: benchmark harness ===";
  fastpath_timing_parity ();
  recovery_timing_parity ();
  adaptive_parity ();
  if not fast then reproduce_figures ()
  else print_endline "(TT_BENCH_FAST=1: skipping figure reproduction)\n";
  ablation_summary ();
  run_bechamel ()
