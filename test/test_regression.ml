(* Simulated-cycle regression pins.

   The simulator's hot paths (event queue, counters, page translation) are
   performance-tuned over time; these tests pin the *simulated* results of
   small fixed-configuration runs so any wall-clock optimisation that changes
   simulated behaviour is caught immediately.  The pinned numbers were
   recorded from the seed implementation and must never drift. *)

module H = Tt_harness
module Run = Tt_harness.Run
module Env = Tt_app.Env
module Stats = Tt_util.Stats

let check_int = Alcotest.(check int)

(* One full block-fetch round trip between two nodes (the unit event of
   Figure 3), on each machine model. *)
let roundtrip make_machine =
  let params = { Params.default with Params.nodes = 2 } in
  let machine : H.Machine.t = make_machine params in
  let base = ref 0 in
  Run.spmd machine ~name:"roundtrip" ~check:false (fun env ->
      if env.Env.proc = 0 then base := env.Env.alloc ~home:0 512;
      env.Env.barrier ();
      if env.Env.proc = 1 then
        for w = 0 to 63 do
          ignore (env.Env.read (!base + (w * 8)))
        done)

let test_stache_roundtrip_pinned () =
  let r = roundtrip (fun p -> H.Machine.typhoon_stache p) in
  let s = r.Run.run_stats in
  check_int "cycles" 2483 r.Run.cycles;
  check_int "msgs.request" 16 (Stats.get s "msgs.request");
  check_int "msgs.response" 16 (Stats.get s "msgs.response");
  check_int "words.request" 48 (Stats.get s "words.request");
  check_int "words.response" 176 (Stats.get s "words.response");
  check_int "accesses" 81 (Stats.get s "accesses");
  check_int "local_misses" 16 (Stats.get s "local_misses");
  check_int "block_faults" 16 (Stats.get s "block_faults");
  check_int "get_ro" 16 (Stats.get s "get_ro");
  check_int "page_faults" 1 (Stats.get s "page_faults")

let test_dirnnb_roundtrip_pinned () =
  let r = roundtrip H.Machine.dirnnb in
  let s = r.Run.run_stats in
  check_int "cycles" 1952 r.Run.cycles;
  check_int "accesses" 64 (Stats.get s "accesses");
  check_int "msgs.request" 16 (Stats.get s "msgs.request");
  check_int "msgs.response" 16 (Stats.get s "msgs.response");
  check_int "words.request" 32 (Stats.get s "words.request");
  check_int "remote_misses" 16 (Stats.get s "remote_misses")

(* The same roundtrip over a faulty fabric: pins the reliable transport's
   behaviour (sequencing, acks, retransmission) and the fault model's PRNG
   stream.  Any change to either shifts these counters. *)
let test_stache_flaky_roundtrip_pinned () =
  let cfg =
    Tt_net.Faults.uniform ~seed:2026 ~drop:0.05 ~dup:0.0125 ~reorder:0.025 ()
  in
  let r =
    roundtrip (fun p ->
        H.Machine.typhoon_stache ~reliability:(Tt_net.Reliable.Flaky cfg) p)
  in
  let s = r.Run.run_stats in
  check_int "cycles" 2686 r.Run.cycles;
  check_int "reliable.data_sent" 32 (Stats.get s "reliable.data_sent");
  check_int "reliable.retransmits" 2 (Stats.get s "reliable.retransmits");
  check_int "reliable.acks_sent" 18 (Stats.get s "reliable.acks_sent");
  check_int "reliable.dup_dropped" 2 (Stats.get s "reliable.dup_dropped");
  check_int "faults.dropped" 1 (Stats.get s "faults.dropped");
  check_int "faults.duplicated" 1 (Stats.get s "faults.duplicated");
  check_int "faults.reordered" 0 (Stats.get s "faults.reordered");
  check_int "msgs.request" 17 (Stats.get s "msgs.request");
  check_int "msgs.response" 35 (Stats.get s "msgs.response");
  (* the protocol still does exactly the fault-free run's work *)
  check_int "accesses" 81 (Stats.get s "accesses");
  check_int "get_ro" 16 (Stats.get s "get_ro")

(* A tiny EM3D run under the custom update protocol (the unit of Figure 4):
   covers bulk traffic, prefetch, barriers and the Stache directory. *)
let test_em3d_update_pinned () =
  let cfg =
    { Tt_app.Em3d.total_nodes = 64; degree = 3; pct_remote = 30; iters = 2;
      seed = 5; software_prefetch = false }
  in
  let params = { Params.default with Params.nodes = 4 } in
  let machine = H.Machine.typhoon_em3d params in
  let inst = Tt_app.Em3d.make cfg ~nprocs:4 in
  let r = Run.spmd machine ~name:"em3d" inst.Tt_app.Em3d.body in
  let s = r.Run.run_stats in
  check_int "cycles" 5935 r.Run.cycles;
  check_int "accesses" 1852 (Stats.get s "accesses");
  check_int "msgs.request" 146 (Stats.get s "msgs.request");
  check_int "msgs.response" 37 (Stats.get s "msgs.response");
  check_int "msgs.local" 20 (Stats.get s "msgs.local");
  check_int "words.request" 1113 (Stats.get s "words.request");
  check_int "updates_buffered" 89 (Stats.get s "updates_buffered");
  check_int "updates_sent" 89 (Stats.get s "updates_sent");
  check_int "fetches" 37 (Stats.get s "fetches");
  check_int "local_misses" 175 (Stats.get s "local_misses")

let () =
  Alcotest.run "regression"
    [
      ( "simulated-cycles",
        [
          Alcotest.test_case "stache roundtrip" `Quick
            test_stache_roundtrip_pinned;
          Alcotest.test_case "dirnnb roundtrip" `Quick
            test_dirnnb_roundtrip_pinned;
          Alcotest.test_case "stache roundtrip, flaky fabric" `Quick
            test_stache_flaky_roundtrip_pinned;
          Alcotest.test_case "em3d update tiny" `Quick test_em3d_update_pinned;
        ] );
    ]
