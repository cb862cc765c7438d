(* Tests for the two ablation knobs: limited-pointer directories (Dir_iB)
   and the finite-link-bandwidth network model.  Both must preserve
   correctness; the tests also pin down their expected performance
   direction. *)

module Machine = Tt_harness.Machine
module Run = Tt_harness.Run
module Env = Tt_app.Env
module Stats = Tt_util.Stats

let nodes = 8

(* a widely-shared-then-written workload: many sharers per block *)
let broadcast_workload (base : int ref) (env : Env.t) =
  let words = 64 in
  if env.Env.proc = 0 then begin
    base := env.Env.alloc ~home:0 (words * Env.word);
    for w = 0 to words - 1 do
      env.Env.write (!base + (w * Env.word)) 1.0
    done
  end;
  env.Env.barrier ();
  for _round = 1 to 3 do
    (* six readers: more than a small pointer limit, fewer than a
       broadcast would hit *)
    if env.Env.proc >= 1 && env.Env.proc <= 6 then
      for w = 0 to words - 1 do
        ignore (env.Env.read (!base + (w * Env.word)))
      done;
    env.Env.barrier ();
    (* the owner rewrites: invalidations to all sharers *)
    if env.Env.proc = 0 then
      for w = 0 to words - 1 do
        env.Env.write (!base + (w * Env.word)) 2.0
      done;
    env.Env.barrier ()
  done;
  (* the readers verify the final value *)
  if env.Env.proc >= 1 && env.Env.proc <= 6 then
    for w = 0 to words - 1 do
      let v = env.Env.read (!base + (w * Env.word)) in
      if v <> 2.0 then failwith (Printf.sprintf "word %d = %g" w v)
    done

let run_dirnnb params =
  let machine = Machine.dirnnb params in
  let base = ref 0 in
  Run.spmd machine ~name:"broadcast" (broadcast_workload base)

let test_limited_pointers_correct_and_overflowing () =
  let params =
    { Params.default with Params.nodes; dir_limited_pointers = Some 4 }
  in
  let r = run_dirnnb params in
  Alcotest.(check bool) "overflows recorded" true
    (Stats.get r.Run.run_stats "dir_overflows" > 0);
  Alcotest.(check bool) "broadcast invalidations used" true
    (Stats.get r.Run.run_stats "broadcast_invals" > 0)

let test_limited_pointers_cost_more_invals () =
  (* six sharers of eight nodes: a 2-pointer directory broadcasts, sending
     strictly more invalidations than the full map *)
  let invals params =
    Stats.get (run_dirnnb params).Run.run_stats "invals_received"
  in
  let full = invals { Params.default with Params.nodes } in
  let limited =
    invals { Params.default with Params.nodes; dir_limited_pointers = Some 2 }
  in
  Alcotest.(check bool)
    (Printf.sprintf "limited (%d) > full map (%d)" limited full)
    true (limited > full)

let test_full_map_never_overflows () =
  let r = run_dirnnb { Params.default with Params.nodes } in
  Alcotest.(check int) "no overflows" 0 (Stats.get r.Run.run_stats "dir_overflows")

let test_contention_model_slows_hot_home () =
  (* all traffic aimed at node 0's port: finite bandwidth must cost cycles *)
  let cycles link =
    let params =
      { Params.default with Params.nodes; link_words_per_cycle = link }
    in
    let base = ref 0 in
    let machine = Machine.typhoon_stache params in
    (Run.spmd machine ~name:"hot-home" (fun env ->
         let words = 512 in
         if env.Env.proc = 0 then begin
           base := env.Env.alloc ~home:0 (words * Env.word);
           for w = 0 to words - 1 do
             env.Env.write (!base + (w * Env.word)) 1.0
           done
         end;
         env.Env.barrier ();
         for w = 0 to words - 1 do
           ignore (env.Env.read (!base + (w * Env.word)))
         done))
      .Run.cycles
  in
  let free = cycles None and tight = cycles (Some 1) in
  Alcotest.(check bool)
    (Printf.sprintf "1 word/cycle (%d) slower than contention-free (%d)" tight
       free)
    true (tight > free)

let test_contention_model_correctness () =
  (* the EM3D run must still match its oracle with a congested network *)
  let params =
    { Params.default with Params.nodes; link_words_per_cycle = Some 2 }
  in
  let cfg =
    { Tt_app.Em3d.total_nodes = 1200; degree = 4; pct_remote = 30; iters = 3;
      seed = 31;
      software_prefetch = false }
  in
  List.iter
    (fun (make : Params.t -> Machine.t) ->
      let machine = make params in
      let inst = Tt_app.Em3d.make cfg ~nprocs:nodes in
      ignore (Run.spmd machine ~name:"em3d" inst.Tt_app.Em3d.body);
      ignore
        (Run.spmd machine ~name:"em3d-v" ~check:false inst.Tt_app.Em3d.verify))
    [ Machine.dirnnb; Machine.typhoon_stache ?max_stache_pages:None;
      Machine.typhoon_em3d ?max_stache_pages:None ]

let () =
  Alcotest.run "ablations"
    [
      ( "limited-pointers",
        [
          Alcotest.test_case "correct and overflowing" `Quick
            test_limited_pointers_correct_and_overflowing;
          Alcotest.test_case "more invalidations than full map" `Quick
            test_limited_pointers_cost_more_invals;
          Alcotest.test_case "full map never overflows" `Quick
            test_full_map_never_overflows;
        ] );
      ( "link-bandwidth",
        [
          Alcotest.test_case "hot home pays for contention" `Quick
            test_contention_model_slows_hot_home;
          Alcotest.test_case "congested runs stay correct" `Slow
            test_contention_model_correctness;
        ] );
    ]
