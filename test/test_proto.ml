(* Tests for the protocol zoo, the adaptive per-page switcher, and their
   torture/faultsweep integration. *)

module Proto = Tt_custom.Proto
module Adaptive = Tt_custom.Adaptive
module Machine = Tt_harness.Machine
module Run = Tt_harness.Run
module Catalog = Tt_harness.Catalog
module Faultsweep = Tt_harness.Faultsweep
module Protozoo = Tt_harness.Protozoo
module Torture = Tt_torture.Torture
module Stache = Tt_stache.Stache
module System = Tt_typhoon.System
module Pagemem = Tt_mem.Pagemem
module Addr = Tt_mem.Addr
module Stats = Tt_util.Stats

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let params nodes = { Params.default with Params.nodes }

(* regression: retyping a page in place must drop the home's 1-entry MRU
   translation cache, or the next access rides a stale cached mode *)
let test_mru_flushed_on_policy_switch () =
  let machine, sys, _st, proto =
    Machine.typhoon_zoo_full ~policy:Proto.Migratory (params 4)
  in
  let vaddr = ref 0 in
  let body (e : Tt_app.Env.t) =
    if e.Tt_app.Env.proc = 0 then begin
      vaddr := e.Tt_app.Env.alloc ~home:0 256;
      e.Tt_app.Env.write !vaddr 42.0;
      let vpage = Addr.page_of !vaddr in
      let mem = System.node_mem sys 0 in
      check_bool "home access warms the MRU slot" true
        (Pagemem.translation_cached mem ~vpage);
      check_bool "allocation adopted" true
        (Proto.pol_of_page proto ~vpage = Proto.Migratory);
      Proto.set_page_pol proto ~vpage Proto.Widerep;
      check_bool "retype drops the cached translation" false
        (Pagemem.translation_cached mem ~vpage);
      check_bool "page carries the new policy" true
        (Proto.pol_of_page proto ~vpage = Proto.Widerep);
      check_bool "data survives the retype" true (e.Tt_app.Env.read !vaddr = 42.0)
    end;
    e.Tt_app.Env.barrier ()
  in
  ignore (Run.spmd machine ~name:"mru-switch" body)

(* regression: a rejoining node's crash-era cached translation is dropped
   (pages may have been re-homed while it was dark) *)
let test_mru_flushed_on_rejoin () =
  let machine, sys, st, _proto =
    Machine.typhoon_zoo_full ~policy:Proto.Stachelike (params 4)
  in
  let body (e : Tt_app.Env.t) =
    if e.Tt_app.Env.proc = 0 then begin
      let vaddr = e.Tt_app.Env.alloc ~home:0 256 in
      e.Tt_app.Env.write vaddr 7.0;
      let vpage = Addr.page_of vaddr in
      let mem = System.node_mem sys 0 in
      check_bool "access warms the MRU slot" true
        (Pagemem.translation_cached mem ~vpage);
      Stache.on_node_rejoin st ~node:0;
      check_bool "rejoin drops the cached translation" false
        (Pagemem.translation_cached mem ~vpage)
    end;
    e.Tt_app.Env.barrier ()
  in
  ignore (Run.spmd machine ~name:"mru-rejoin" body)

(* the adaptive machine switches pages on the producer-consumer synthetic
   and still verifies against the oracle *)
let test_adaptive_switches_and_verifies () =
  let machine = Machine.typhoon_adaptive (params 8) in
  let inst = Catalog.make ~name:"synthpc" ~size:Catalog.Small ~scale:0.25 ~nprocs:8 in
  let r = Run.verified machine inst in
  let switches = Stats.get r.Run.run_stats "switches" in
  check_bool (Printf.sprintf "switches > 0 (got %d)" switches) true (switches > 0)

(* the adaptive layer's observation stream is host-side only: a counting
   observer on a zoo machine sees events but moves no simulated cycle or
   message *)
let test_observer_is_inert () =
  let run observe =
    let machine, _, _, proto =
      Machine.typhoon_zoo_full ~policy:Proto.Widerep (params 8)
    in
    let events = ref 0 in
    if observe then
      Proto.set_observer proto (Some (fun ~vaddr:_ _ -> incr events));
    let inst =
      Catalog.make ~name:"synthpc" ~size:Catalog.Small ~scale:0.25 ~nprocs:8
    in
    let r = Run.spmd machine ~name:"synthpc" inst.Catalog.body in
    let s = r.Run.run_stats in
    (r.Run.cycles, Stats.get s "msgs.request" + Stats.get s "msgs.response",
     !events)
  in
  let cycles, msgs, _ = run false in
  let cycles', msgs', events = run true in
  check_int "cycles" cycles cycles';
  check_int "messages" msgs msgs';
  check_bool (Printf.sprintf "observer saw events (got %d)" events) true
    (events > 0)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* unknown machine names fail loudly, listing the valid ones *)
let test_unknown_protocol_lists_names () =
  let msg =
    try
      ignore (Machine.of_name "mesi" (params 4));
      "no exception"
    with Invalid_argument m -> m
  in
  List.iter
    (fun name ->
      check_bool (Printf.sprintf "%S lists %s" msg name) true
        (contains ~needle:name msg))
    Machine.names

(* --- litmus torture under the zoo --- *)

let torture_cases ~machines ~drops =
  Torture.grid ~machines ~drops ~seeds:[ 1; 2 ] ~iters:4 ()

let run_grid cases =
  List.map (fun c -> (c, Torture.run c)) cases

(* migratory and prodcons are sequentially consistent: every litmus shape
   passes, clean and faulty fabric alike *)
let test_litmus_clean_under_sc_zoo () =
  run_grid
    (torture_cases ~machines:[ "migratory"; "prodcons" ] ~drops:[ 0.0; 0.05 ])
  |> List.iter (fun ((c : Torture.case), (r : Torture.result)) ->
         match r.Torture.outcome with
         | Torture.Pass -> ()
         | Torture.Fail v ->
             Alcotest.fail
               (Printf.sprintf "%s on %s (drop %.2f seed %d): %s" c.Torture.litmus
                  c.Torture.machine c.Torture.drop c.Torture.fault_seed
                  v.Torture.detail))

(* widerep and delayed relax consistency between synchronization points, and
   adaptive may promote racy pages to widerep: racy shapes may fail, but
   only ever as a *diagnosed* SC/staleness violation — a hang, transport
   give-up, invariant breach or protocol crash is a real bug *)
let test_litmus_diagnosed_under_update_zoo () =
  let results =
    run_grid
      (torture_cases
         ~machines:[ "widerep"; "delayed"; "adaptive" ]
         ~drops:[ 0.0; 0.05 ])
  in
  let diagnosed = ref 0 in
  List.iter
    (fun ((c : Torture.case), (r : Torture.result)) ->
      match r.Torture.outcome with
      | Torture.Pass -> ()
      | Torture.Fail v -> (
          match v.Torture.kind with
          | Torture.Sc | Torture.Stale -> incr diagnosed
          | Torture.Hang | Torture.Link | Torture.Invariant | Torture.Crash ->
              Alcotest.fail
                (Printf.sprintf "%s on %s (drop %.2f seed %d): [%s] %s"
                   c.Torture.litmus c.Torture.machine c.Torture.drop
                   c.Torture.fault_seed
                   (Torture.kind_to_string v.Torture.kind)
                   v.Torture.detail)))
    results;
  (* the store-buffering shape is racy by construction: the update family
     must actually exhibit (and diagnose) its relaxed window there *)
  check_bool
    (Printf.sprintf "diagnosed staleness exists (got %d)" !diagnosed)
    true (!diagnosed > 0)

(* --- faultsweep: one lossy cell per zoo protocol --- *)

let test_faultsweep_cell_per_protocol () =
  List.iter
    (fun proto ->
      Faultsweep.run ~apps:[ "ocean" ] ~machine:proto ~drops:[ 0.05 ]
        ~seeds:[ 1 ] ()
      |> List.iter (fun (p : Faultsweep.point) ->
             match p.Faultsweep.outcome with
             | Faultsweep.Passed -> ()
             | Faultsweep.Failed msg ->
                 Alcotest.fail
                   (Printf.sprintf "%s drop %.2f on %s: %s" p.Faultsweep.app
                      p.Faultsweep.drop proto msg)))
    Catalog.protocols

(* --- shootout sanity: tiny grid, adaptive gate holds --- *)

let test_mini_shootout_adaptive_gate () =
  let cells =
    Protozoo.run ~apps:[ "synthpc" ]
      ~protos:[ "stache"; "widerep"; "adaptive" ]
      ~nodes:[ 8 ] ()
  in
  check_int "grid size" 3 (List.length cells);
  match Protozoo.adaptive_regressions cells with
  | [] -> ()
  | rs -> Alcotest.fail (String.concat "; " rs)

let () =
  Alcotest.run "proto"
    [
      ( "zoo",
        [
          Alcotest.test_case "MRU flushed on policy switch" `Quick
            test_mru_flushed_on_policy_switch;
          Alcotest.test_case "MRU flushed on node rejoin" `Quick
            test_mru_flushed_on_rejoin;
          Alcotest.test_case "unknown protocol lists names" `Quick
            test_unknown_protocol_lists_names;
          Alcotest.test_case "observer is inert" `Quick
            test_observer_is_inert;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "switches and verifies" `Quick
            test_adaptive_switches_and_verifies;
          Alcotest.test_case "mini shootout gate" `Slow
            test_mini_shootout_adaptive_gate;
        ] );
      ( "torture",
        [
          Alcotest.test_case "litmus clean under SC zoo" `Slow
            test_litmus_clean_under_sc_zoo;
          Alcotest.test_case "litmus diagnosed under update zoo" `Slow
            test_litmus_diagnosed_under_update_zoo;
        ] );
      ( "faultsweep",
        [
          Alcotest.test_case "lossy cell per protocol" `Slow
            test_faultsweep_cell_per_protocol;
        ] );
    ]
