(* Equivalence tests for the suspension-free fast path.

   TT_FASTPATH=1 elides the effect suspend/resume whenever a waker fires
   before registration returns and the engine can continue the thread
   inline without reordering events; TT_FASTPATH=0 forces every blocking
   point through the full fiber suspension.  The two modes must be
   observationally identical: same event interleavings, same simulated
   cycles, same protocol counters, same torture traces.  Only the
   [suspensions_taken]/[suspensions_elided] observability counters may
   differ, so stats comparisons filter those out. *)

module Engine = Tt_sim.Engine
module Thread = Tt_sim.Thread
module Barrier = Tt_sim.Barrier
module Lock = Tt_sim.Lock
module Stats = Tt_util.Stats
module H = Tt_harness
module Run = Tt_harness.Run
module Env = Tt_app.Env
module T = Tt_torture.Torture
module Trace = Tt_torture.Trace

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_fastpath on f =
  let prev = Thread.fastpath_enabled () in
  Thread.set_fastpath on;
  Fun.protect ~finally:(fun () -> Thread.set_fastpath prev) f

(* ---------------- Random-schedule log equivalence ---------------- *)

(* Three threads execute the same random op list (SPMD-style, lightly
   skewed per proc so they desynchronize) over an engine with a barrier
   and a lock.  Every op appends [(proc, op index, thread clock, engine
   now)] to a shared log; the log captures the full interleaving, so any
   divergence between the elided and the suspended path shows up as a
   mismatch. *)

type op = Advance of int | Yield | Bar | Critical of int | Await of int
        | Immediate

let decode code =
  let arg = code / 6 in
  match code mod 6 with
  | 0 -> Advance ((arg mod 50) + 1)
  | 1 -> Yield
  | 2 -> Bar
  | 3 -> Critical (arg mod 20)
  | 4 -> Await ((arg mod 8) + 1)
  | _ -> Immediate

let run_schedule codes =
  let nprocs = 3 in
  let ops = List.map decode codes in
  let e = Engine.create () in
  let barrier = Barrier.create e ~participants:nprocs ~latency:11 in
  let lock = Lock.create e () in
  let log = ref [] in
  for proc = 0 to nprocs - 1 do
    ignore
      (Thread.spawn e ~quantum:40 ~name:(Printf.sprintf "p%d" proc)
         (fun th ->
           List.iteri
             (fun i op ->
               (match op with
               | Advance n -> Thread.advance th (n + (proc * 3))
               | Yield -> Thread.yield th
               | Bar -> Barrier.wait barrier th
               | Critical n ->
                   Lock.acquire lock th;
                   Thread.advance th n;
                   Lock.release lock th
               | Await d ->
                   ignore
                     (Thread.await th (fun wake ->
                          Engine.after e (d + proc) (fun () -> wake d)))
               | Immediate ->
                   ignore (Thread.await th (fun wake -> wake proc)));
               log := (proc, i, Thread.clock th, Engine.now e) :: !log)
             ops))
  done;
  Engine.run e;
  List.rev !log

let prop_fastpath_log_equivalence =
  QCheck.Test.make ~name:"fastpath on/off produce identical schedules"
    ~count:60
    QCheck.(list_of_size Gen.(0 -- 25) (0 -- 119))
    (fun codes ->
      let fast = with_fastpath true (fun () -> run_schedule codes) in
      let slow = with_fastpath false (fun () -> run_schedule codes) in
      fast = slow)

(* ---------------- Fig. 3 roundtrip equivalence ---------------- *)

(* The unit event of Figure 3 (one 512-byte block fetched word by word
   between two nodes), run on both machines under both settings: the
   pinned simulated-cycle rows and every protocol counter must be
   bit-identical.  Only the suspension observability counters differ. *)

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

let comparable_stats r =
  Stats.counters r.Run.run_stats
  |> List.filter (fun (k, _) ->
         not (String.length k >= 12 && String.sub k 0 12 = "suspensions_"))

let check_roundtrip_equiv name make_machine ~pinned_cycles =
  let fast = with_fastpath true (fun () -> roundtrip make_machine) in
  let slow = with_fastpath false (fun () -> roundtrip make_machine) in
  check_int (name ^ ": fast cycles pinned") pinned_cycles fast.Run.cycles;
  check_int (name ^ ": slow cycles pinned") pinned_cycles slow.Run.cycles;
  check_bool
    (name ^ ": per-proc cycles identical")
    true
    (fast.Run.proc_cycles = slow.Run.proc_cycles);
  check_bool
    (name ^ ": stats identical (minus suspension counters)")
    true
    (comparable_stats fast = comparable_stats slow)

let test_stache_roundtrip_equiv () =
  check_roundtrip_equiv "stache"
    (fun p -> H.Machine.typhoon_stache p)
    ~pinned_cycles:2483

let test_dirnnb_roundtrip_equiv () =
  check_roundtrip_equiv "dirnnb" H.Machine.dirnnb ~pinned_cycles:1952

(* ---------------- Torture replay equivalence ---------------- *)

(* Torture cases are pure functions of their fields; the fast path must
   not perturb outcome, cycle count, decision-site numbering, or the
   recorded trace.  Perturbed cases double as a regression test for the
   auto-disable rule: with the tie-break hook installed every Engine.at
   draws a salt, so eliding one would shift all later site indices. *)

let torture_case ?(litmus = "SB") ?(machine = "stache") ?(drop = 0.0)
    ?(perturb_rate = 0.0) () =
  { T.litmus; machine; drop; fault_seed = 7; perturb_rate; perturb_seed = 3;
    iters = 2; sabotage = false }

let check_torture_equiv name case =
  let fast = with_fastpath true (fun () -> T.run case) in
  let slow = with_fastpath false (fun () -> T.run case) in
  check_bool (name ^ ": outcome identical") true
    (fast.T.outcome = slow.T.outcome);
  check_int (name ^ ": cycles identical") slow.T.cycles fast.T.cycles;
  check_int (name ^ ": perturb sites identical") slow.T.perturb_sites
    fast.T.perturb_sites;
  check_int (name ^ ": fault sites identical") slow.T.fault_sites
    fast.T.fault_sites;
  check_bool (name ^ ": trace identical") true
    (Trace.to_lines fast.T.trace = Trace.to_lines slow.T.trace)

let test_torture_equiv_plain () =
  check_torture_equiv "SB/stache" (torture_case ());
  check_torture_equiv "MP/dirnnb" (torture_case ~litmus:"MP" ~machine:"dirnnb" ())

let test_torture_equiv_faulty () =
  check_torture_equiv "SB/stache/drop"
    (torture_case ~drop:0.05 ());
  check_torture_equiv "MP/stache/drop" (torture_case ~litmus:"MP" ~drop:0.05 ())

let test_torture_equiv_perturbed () =
  check_torture_equiv "SB/stache/perturbed"
    (torture_case ~perturb_rate:0.3 ());
  check_torture_equiv "SB/dirnnb/perturbed+drop"
    (torture_case ~machine:"dirnnb" ~drop:0.05 ~perturb_rate:0.3 ())

let prop_torture_equivalence =
  QCheck.Test.make ~name:"random torture cases identical fastpath on/off"
    ~count:12
    QCheck.(
      quad (oneofl [ "SB"; "MP"; "LB"; "CoRR" ])
        (oneofl [ "stache"; "dirnnb" ])
        (oneofl [ 0.0; 0.05 ])
        (oneofl [ 0.0; 0.3 ]))
    (fun (litmus, machine, drop, perturb_rate) ->
      let case = torture_case ~litmus ~machine ~drop ~perturb_rate () in
      let fast = with_fastpath true (fun () -> T.run case) in
      let slow = with_fastpath false (fun () -> T.run case) in
      fast.T.outcome = slow.T.outcome
      && fast.T.cycles = slow.T.cycles
      && fast.T.perturb_sites = slow.T.perturb_sites
      && fast.T.fault_sites = slow.T.fault_sites
      && Trace.to_lines fast.T.trace = Trace.to_lines slow.T.trace)

let () =
  Alcotest.run "fastpath"
    [
      ( "schedule-equivalence",
        [ QCheck_alcotest.to_alcotest prop_fastpath_log_equivalence ] );
      ( "fig3-equivalence",
        [
          Alcotest.test_case "stache roundtrip" `Quick
            test_stache_roundtrip_equiv;
          Alcotest.test_case "dirnnb roundtrip" `Quick
            test_dirnnb_roundtrip_equiv;
        ] );
      ( "torture-equivalence",
        [
          Alcotest.test_case "perfect fabric" `Quick test_torture_equiv_plain;
          Alcotest.test_case "faulty fabric" `Quick test_torture_equiv_faulty;
          Alcotest.test_case "perturbed schedules" `Quick
            test_torture_equiv_perturbed;
          QCheck_alcotest.to_alcotest prop_torture_equivalence;
        ] );
    ]
