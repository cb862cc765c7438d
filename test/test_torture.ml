(* Tier-1 tests for the consistency torture subsystem: the SC outcome
   oracle, a small deterministic litmus grid over both machines, schedule
   perturbation, trace record/replay, the sabotage-driven shrink pipeline,
   and artifact round-trips. *)

module Engine = Tt_sim.Engine
module Faults = Tt_net.Faults
module Faultsweep = Tt_harness.Faultsweep
module L = Tt_torture.Litmus
module Trace = Tt_torture.Trace
module Shrink = Tt_torture.Shrink
module T = Tt_torture.Torture

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let case ?(litmus = "SB") ?(machine = "stache") ?(drop = 0.0)
    ?(fault_seed = 1) ?(perturb_rate = 0.0) ?(perturb_seed = 0) ?(iters = 2)
    ?(sabotage = false) () =
  { T.litmus; machine; drop; fault_seed; perturb_rate; perturb_seed; iters;
    sabotage }

(* ---------------- SC oracle ---------------- *)

let test_oracle_sb () =
  let chk regs want =
    check_bool
      (Printf.sprintf "SB %d/%d" regs.(0) regs.(1))
      want
      (L.check L.sb ~regs ~locs:[| 1; 1 |])
  in
  chk [| 0; 0 |] false (* the litmus outcome SC forbids *);
  chk [| 1; 0 |] true;
  chk [| 0; 1 |] true;
  chk [| 1; 1 |] true;
  check_int "SB allowed set" 3 (L.allowed_count L.sb)

let test_oracle_mp () =
  (* flag observed (r0=1) but payload stale (r1=0) is the forbidden pair *)
  check_bool "MP 1/0 forbidden" false
    (L.check L.mp ~regs:[| 1; 0 |] ~locs:[| 1; 1 |]);
  check_bool "MP 1/1 allowed" true
    (L.check L.mp ~regs:[| 1; 1 |] ~locs:[| 1; 1 |]);
  check_bool "MP 0/0 allowed" true
    (L.check L.mp ~regs:[| 0; 0 |] ~locs:[| 1; 1 |]);
  check_int "MP allowed set" 3 (L.allowed_count L.mp)

let test_oracle_lb () =
  check_bool "LB 1/1 forbidden" false
    (L.check L.lb ~regs:[| 1; 1 |] ~locs:[| 1; 1 |]);
  check_bool "LB 0/0 allowed" true
    (L.check L.lb ~regs:[| 0; 0 |] ~locs:[| 1; 1 |])

let test_oracle_coherence () =
  (* CoRR: reading the new value then the old one runs time backwards *)
  check_bool "CoRR 1/0 forbidden" false
    (L.check L.corr ~regs:[| 1; 0 |] ~locs:[| 1 |]);
  check_bool "CoRR 0/1 allowed" true
    (L.check L.corr ~regs:[| 0; 1 |] ~locs:[| 1 |]);
  (* CoWW: the overwritten 1 can never be the final value *)
  check_bool "CoWW final 2 allowed" true
    (L.check L.coww ~regs:[||] ~locs:[| 2 |]);
  check_bool "CoWW final 3 allowed" true
    (L.check L.coww ~regs:[||] ~locs:[| 3 |]);
  check_bool "CoWW final 1 forbidden" false
    (L.check L.coww ~regs:[||] ~locs:[| 1 |]);
  check_int "CoWW allowed set" 2 (L.allowed_count L.coww)

let test_oracle_iriw () =
  (* the two readers disagreeing on the write order *)
  check_bool "IRIW split order forbidden" false
    (L.check L.iriw ~regs:[| 1; 0; 1; 0 |] ~locs:[| 1; 1 |]);
  check_bool "IRIW agreed order allowed" true
    (L.check L.iriw ~regs:[| 1; 0; 0; 1 |] ~locs:[| 1; 1 |]);
  check_bool "IRIW all-new allowed" true
    (L.check L.iriw ~regs:[| 1; 1; 1; 1 |] ~locs:[| 1; 1 |])

let test_oracle_lock () =
  (* regs are the pre-increment counter reads: any permutation of 0..3 with
     final count 4 is a serializable lock order; a lost update is not *)
  check_bool "LOCK permutation allowed" true
    (L.check L.lock_atomic ~regs:[| 0; 1; 2; 3 |] ~locs:[| 4 |]);
  check_bool "LOCK shuffled permutation allowed" true
    (L.check L.lock_atomic ~regs:[| 3; 0; 2; 1 |] ~locs:[| 4 |]);
  check_bool "LOCK lost update forbidden" false
    (L.check L.lock_atomic ~regs:[| 0; 0; 1; 2 |] ~locs:[| 3 |]);
  check_int "LOCK allowed set = 4!" 24 (L.allowed_count L.lock_atomic)

(* ---------------- engine tie-break perturbation ---------------- *)

let order_with_salts salts =
  let e = Engine.create () in
  (match salts with
  | None -> ()
  | Some arr -> Engine.set_tiebreak e (Some (fun site -> arr.(site))));
  let log = ref [] in
  let ev tag = Engine.at e 10 (fun () -> log := tag :: !log) in
  List.iter ev [ 0; 1; 2; 3 ];
  Engine.run e;
  List.rev !log

let test_engine_salt_order () =
  check_bool "no perturber: FIFO" true
    (order_with_salts None = [ 0; 1; 2; 3 ]);
  check_bool "all-zero salts reproduce FIFO" true
    (order_with_salts (Some [| 0; 0; 0; 0 |]) = [ 0; 1; 2; 3 ]);
  (* lower salt runs first; FIFO only among equal salts *)
  check_bool "salts reorder a same-time tie" true
    (order_with_salts (Some [| 3; 1; 0; 2 |]) = [ 2; 1; 3; 0 ])

let test_engine_salt_never_crosses_timestamps () =
  let e = Engine.create () in
  Engine.set_tiebreak e (Some (fun site -> if site = 0 then 255 else 0));
  let log = ref [] in
  Engine.at e 5 (fun () -> log := `Early :: !log);
  Engine.at e 10 (fun () -> log := `Late :: !log);
  Engine.run e;
  check_bool "max salt still respects time order" true
    (!log = [ `Late; `Early ]);
  check_int "every decision drew a salt" 2 (Engine.tiebreak_sites e)

(* ---------------- grid ---------------- *)

let test_grid_perfect_passes () =
  let cases =
    T.grid ~litmus:[ "SB"; "MP"; "LOCK" ] ~machines:T.machines ~drops:[ 0.0 ]
      ~seeds:[ 1; 2 ] ~iters:2 ~perturb_rate:0.0 ~sabotage:false ()
  in
  check_int "grid size" 12 (List.length cases);
  let results = T.run_grid cases in
  check_int "no violations" 0 (List.length (T.failures results));
  List.iter
    (fun (_, r) -> check_bool "cycles advanced" true (r.T.cycles > 0))
    results

let test_grid_faulty_perturbed_passes () =
  (* drop/dup/reorder plus schedule perturbation: SC must still hold, and
     the knobs must demonstrably be exercised *)
  let cases =
    T.grid ~litmus:[ "MP"; "CoRR" ] ~machines:T.machines ~drops:[ 0.1 ]
      ~seeds:[ 1; 2 ] ~iters:2 ~perturb_rate:0.5 ~sabotage:false ()
  in
  let results = T.run_grid cases in
  check_int "no violations" 0 (List.length (T.failures results));
  check_bool "faults were injected" true
    (List.exists (fun (_, r) -> Trace.n_decisions r.T.trace > 0) results);
  check_bool "schedules were perturbed" true
    (List.exists (fun (_, r) -> Trace.n_salts r.T.trace > 0) results)

(* ---------------- determinism and replay ---------------- *)

let test_run_deterministic () =
  let c =
    case ~litmus:"LOCK" ~drop:0.08 ~fault_seed:5 ~perturb_rate:0.4
      ~perturb_seed:99 ~iters:3 ()
  in
  let a = T.run c and b = T.run c in
  check_bool "same case, same outcome" true (a.T.outcome = b.T.outcome);
  check_int "same cycles" a.T.cycles b.T.cycles;
  check_int "same perturb sites" a.T.perturb_sites b.T.perturb_sites;
  check_int "same fault sites" a.T.fault_sites b.T.fault_sites;
  check_bool "same journal" true
    (Trace.to_lines a.T.trace = Trace.to_lines b.T.trace)

let test_replay_reproduces () =
  let c =
    case ~litmus:"MP" ~machine:"dirnnb" ~drop:0.1 ~fault_seed:3
      ~perturb_rate:0.4 ~perturb_seed:17 ~iters:3 ()
  in
  let a = T.run c in
  check_bool "recorded something to replay" true
    (Trace.n_salts a.T.trace + Trace.n_decisions a.T.trace > 0);
  let b = T.run ~mode:(T.Replay a.T.trace) c in
  check_bool "replay outcome matches" true (a.T.outcome = b.T.outcome);
  check_int "replay cycles bit-identical" a.T.cycles b.T.cycles;
  check_bool "replay journal identical" true
    (Trace.to_lines a.T.trace = Trace.to_lines b.T.trace)

let test_masked_full_keep_is_generate () =
  let c = case ~litmus:"SB" ~drop:0.1 ~perturb_rate:0.3 ~perturb_seed:4 () in
  let a = T.run c in
  let m =
    T.run
      ~mode:
        (T.Masked
           { perturb_keep = Trace.salt_sites a.T.trace;
             fault_keep = Trace.fault_sites a.T.trace })
      c
  in
  check_int "masked full-keep cycles" a.T.cycles m.T.cycles;
  check_bool "masked full-keep journal" true
    (Trace.to_lines a.T.trace = Trace.to_lines m.T.trace)

(* ---------------- ddmin ---------------- *)

let test_ddmin_finds_minimal_pair () =
  let probes = ref 0 in
  let test kept =
    incr probes;
    List.mem 3 kept && List.mem 7 kept
  in
  let r = Shrink.ddmin ~test (List.init 10 (fun i -> i)) in
  check_bool "exact minimal pair" true (List.sort compare r = [ 3; 7 ])

let test_ddmin_empty_and_irreducible () =
  check_bool "vacuous failure shrinks to nothing" true
    (Shrink.ddmin ~test:(fun _ -> true) [ 1; 2; 3 ] = []);
  check_bool "non-reproducing input returned unchanged" true
    (Shrink.ddmin ~test:(fun _ -> false) [ 1; 2; 3 ] = [ 1; 2; 3 ])

(* ---------------- sabotage: catch, shrink, replay ---------------- *)

let test_sabotage_caught_and_shrunk () =
  (* break Stache's invalidation handler for this case only: the grid must
     flag it, the shrinker must minimize it, and the written artifact must
     replay to the same violation kind *)
  let c =
    case ~litmus:"SB" ~drop:0.05 ~fault_seed:2 ~perturb_rate:0.25
      ~perturb_seed:11 ~iters:3 ~sabotage:true ()
  in
  let r = T.run c in
  (match r.T.outcome with
  | T.Pass -> Alcotest.fail "sabotaged run must violate SC"
  | T.Fail v ->
      check_bool "kind is observable" true
        (v.T.kind = T.Stale || v.T.kind = T.Sc));
  match T.shrink c with
  | Error m -> Alcotest.fail ("shrink failed: " ^ m)
  | Ok s ->
      check_bool "iters minimized" true
        (s.T.s_case.T.iters <= c.T.iters);
      check_bool "fault sites not grown" true
        (s.T.s_fault_after <= s.T.s_fault_before);
      check_bool "perturb sites not grown" true
        (s.T.s_perturb_after <= s.T.s_perturb_before);
      let file = Filename.temp_file "tt-torture" ".txt" in
      Fun.protect
        ~finally:(fun () -> Sys.remove file)
        (fun () ->
          T.write_artifact file s;
          let c', trace', kind' = T.read_artifact file in
          check_bool "artifact round-trips the case" true (c' = s.T.s_case);
          check_bool "artifact round-trips the kind" true
            (kind' = s.T.s_violation.T.kind);
          check_bool "artifact round-trips the journal" true
            (Trace.to_lines trace' = Trace.to_lines s.T.s_trace);
          let _, expected, res = T.replay file in
          match res.T.outcome with
          | T.Pass -> Alcotest.fail "replayed artifact must reproduce"
          | T.Fail v ->
              check_bool "replay reproduces the violation kind" true
                (v.T.kind = expected))

(* ---------------- per-vnet fault config (Faultsweep.config_of) -------- *)

let test_config_of_per_vnet () =
  let close a b = Float.abs (a -. b) < 1e-9 in
  let cfg = Faultsweep.config_of ~drop:0.08 ~seed:7 () in
  check_bool "symmetric drop" true
    (close cfg.Faults.request.Faults.drop 0.08
    && close cfg.Faults.response.Faults.drop 0.08);
  check_bool "dup = drop/4" true (close cfg.Faults.request.Faults.dup 0.02);
  check_bool "reorder = drop/2" true
    (close cfg.Faults.request.Faults.reorder 0.04);
  let cfg =
    Faultsweep.config_of ~request_drop:0.2 ~response_drop:0.0 ~drop:0.08
      ~seed:7 ()
  in
  check_bool "request override" true
    (close cfg.Faults.request.Faults.drop 0.2
    && close cfg.Faults.request.Faults.dup 0.05
    && close cfg.Faults.request.Faults.reorder 0.1);
  check_bool "response override" true
    (close cfg.Faults.response.Faults.drop 0.0
    && close cfg.Faults.response.Faults.dup 0.0
    && close cfg.Faults.response.Faults.reorder 0.0)

(* Sabotage is a property of the machine a case builds: a grid fanned out
   over worker domains gives the outcomes it gives sequentially, and it
   leaves nothing behind that a later plain machine could pick up. *)
let stache_sabotaged_invals ~sabotage =
  let module Env = Tt_app.Env in
  let machine =
    Tt_harness.Machine.typhoon_stache
      { Params.default with Params.nodes = 4; sabotage }
  in
  let a = ref 0 in
  ignore
    (Tt_harness.Run.spmd machine ~name:"share-then-write" ~check:false
       (fun env ->
         if env.Env.proc = 0 then a := env.Env.alloc ~home:0 64;
         env.Env.barrier ();
         ignore (env.Env.read !a);
         env.Env.barrier ();
         if env.Env.proc = 0 then env.Env.write !a 1.0;
         env.Env.barrier ()));
  Tt_util.Stats.get
    (machine.Tt_harness.Machine.merged_stats ())
    "sabotaged_invals"

let test_sabotage_is_per_machine () =
  let cases =
    T.grid ~machines:[ "stache" ] ~drops:[ 0.0 ] ~seeds:[ 1; 2; 3; 4 ]
      ~iters:3 ~sabotage:true ()
  in
  let outcomes domains =
    List.map
      (fun (_, r) -> (r.T.outcome, r.T.cycles))
      (T.run_grid ~domains cases)
  in
  let sequential = outcomes 0 in
  check_bool "the sabotage is caught" true
    (List.exists (fun (o, _) -> o <> T.Pass) sequential);
  check_bool "domains 2 = domains 0" true (outcomes 2 = sequential);
  check_int "a plain stache afterwards counts none" 0
    (stache_sabotaged_invals ~sabotage:false);
  check_bool "a sabotaged stache counts some" true
    (stache_sabotaged_invals ~sabotage:true > 0)

let () =
  Alcotest.run "torture"
    [
      ( "oracle",
        [
          Alcotest.test_case "SB" `Quick test_oracle_sb;
          Alcotest.test_case "MP" `Quick test_oracle_mp;
          Alcotest.test_case "LB" `Quick test_oracle_lb;
          Alcotest.test_case "CoRR/CoWW" `Quick test_oracle_coherence;
          Alcotest.test_case "IRIW" `Quick test_oracle_iriw;
          Alcotest.test_case "LOCK" `Quick test_oracle_lock;
        ] );
      ( "perturb",
        [
          Alcotest.test_case "salt order" `Quick test_engine_salt_order;
          Alcotest.test_case "salts never cross timestamps" `Quick
            test_engine_salt_never_crosses_timestamps;
        ] );
      ( "grid",
        [
          Alcotest.test_case "perfect transport passes" `Slow
            test_grid_perfect_passes;
          Alcotest.test_case "faulty + perturbed passes" `Slow
            test_grid_faulty_perturbed_passes;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same case reproduces exactly" `Quick
            test_run_deterministic;
          Alcotest.test_case "journal replay is bit-identical" `Quick
            test_replay_reproduces;
          Alcotest.test_case "masked full keep = generate" `Quick
            test_masked_full_keep_is_generate;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "ddmin minimal pair" `Quick
            test_ddmin_finds_minimal_pair;
          Alcotest.test_case "ddmin edge cases" `Quick
            test_ddmin_empty_and_irreducible;
          Alcotest.test_case "sabotage caught, shrunk, replayed" `Slow
            test_sabotage_caught_and_shrunk;
        ] );
      ( "sabotage",
        [
          Alcotest.test_case "per machine, parallel-safe" `Slow
            test_sabotage_is_per_machine;
        ] );
      ( "sweep-config",
        [
          Alcotest.test_case "per-vnet rates" `Quick test_config_of_per_vnet;
        ] );
    ]
