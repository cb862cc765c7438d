(* Whole-run benchmark of the simulator: end-to-end metrics untraced,
   per-layer metrics from a traced run (see README.md). *)

module W = Workloads
module Stats = Tt_util.Stats

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let s_of_ns ns = float_of_int ns *. 1e-9

let ratio a b = if b = 0.0 then 0.0 else a /. b

let untraced passes = List.filter (fun p -> not p.W.traced) passes

let traced passes = List.filter (fun p -> p.W.traced) passes

(* The sum over cells of each cell's median timed phase across the
   passes, with [time] read from each cell's result.  Each cell is scaled
   by the host speed measured just before it (see [Probe.host_speed]); its
   median over the passes then discards the moments the yardstick and the
   cell saw different speeds. *)
let wall ?(time = fun (r : W.result) -> r.ref_ns) passes =
  let cell_s id p =
    List.find_opt (fun (r : W.result) -> r.id = id) p.W.results
    |> Option.map (fun r -> time r *. 1e-9)
  in
  match passes with
  | [] -> 0.0
  | p :: _ ->
      List.fold_left
        (fun acc (r : W.result) ->
          acc +. median (List.filter_map (cell_s r.id) passes))
        0.0 p.W.results

(* --- metrics --- *)

let end_to_end passes =
  let plain = untraced passes in
  let p = List.hd plain in
  let wall_s = wall plain in
  [
    ("wall_s", wall_s, "s");
    ("app_ops_per_s", ratio (float_of_int p.W.ops) wall_s, "1/s");
    ("setup_s", median (List.map (fun p -> p.W.setup_ref_ns *. 1e-9) plain), "s");
    ( "peak_heap_mb",
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * 8) /. 1e6,
      "MB" );
    ("sim_cycles", float_of_int p.W.sim_cycles, "cycles");
    ("sim_msgs", float_of_int p.W.sim_msgs, "count");
  ]

(* Counts repeat exactly from pass to pass; times come from the traced
   pass with the median wall time, so its self times add up to its wall. *)
let per_layer passes =
  let sorted =
    List.sort (fun a b -> compare a.W.wall_ns b.W.wall_ns) (traced passes)
  in
  let p = List.nth sorted (List.length sorted / 2) in
  let g k = float_of_int (Stats.get p.W.stats k) in
  let sum ks = List.fold_left (fun acc k -> acc +. g k) 0.0 ks in
  let miss_ratio layer =
    ratio (g (layer ^ ".misses")) (sum [ layer ^ ".hits"; layer ^ ".misses" ])
  in
  let self b = s_of_ns p.W.self_ns.(Probe.index b) in
  let ops = float_of_int p.W.ops and events = float_of_int p.W.events in
  let overhead =
    100.0
    *. (ratio (wall (traced passes)) (wall (untraced passes)) -. 1.0)
  in
  let count name key = (name, g key, "count") in
  [
    ("app.build_s", s_of_ns p.W.build_ns, "s");
    ("app.ops", ops, "count");
    ("app.syncs", float_of_int p.W.syncs, "count");
    ("machine.create_s", s_of_ns p.W.create_ns, "s");
    ("oracle.verify_s", self Probe.Verify, "s");
    ("engine.events", events, "count");
    ("engine.ns_per_event", ratio (1e9 *. self Probe.Engine) events, "ns");
    ("engine.events_per_op", ratio events ops, "ratio");
    count "thread.suspensions_taken" "suspensions_taken";
    ( "thread.elided_frac",
      ratio (g "suspensions_elided")
        (sum [ "suspensions_elided"; "suspensions_taken" ]),
      "ratio" );
    ("tlb.miss_ratio", miss_ratio "tlb", "ratio");
    ("rtlb.miss_ratio", miss_ratio "rtlb", "ratio");
    ("cache.miss_ratio", miss_ratio "cache", "ratio");
    count "cache.evictions" "cache.evictions";
    count "np.handled" "np.handled";
    ("np.busy_frac", ratio (g "np.busy_cycles") (g "np.span_cycles"), "ratio");
    count "np.block_faults" "block_faults";
    count "np.page_faults" "page_faults";
    count "stache.get_ro" "get_ro";
    count "stache.get_rw" "get_rw";
    count "stache.inval" "inval";
    count "stache.page_replacements" "page_replacements";
    count "dirnnb.remote_misses" "remote_misses";
    count "dirnnb.invals_received" "invals_received";
    count "proto.updates_sent" "updates_sent";
    count "proto.pushes_sent" "pushes_sent";
    ( "proto.stale_frac",
      ratio
        (sum [ "updates_stale"; "pushes_stale" ])
        (sum [ "updates_sent"; "pushes_sent" ]),
      "ratio" );
    count "proto.flushes" "flushes";
    count "adaptive.switches" "switches";
    ("fabric.msgs", sum [ "msgs.request"; "msgs.response" ], "count");
    ("fabric.words", sum [ "words.request"; "words.response" ], "words");
    count "flow.spilled" "flow.spilled";
    count "flow.blocked" "flow.blocked";
    ("flow.peak_queued", float_of_int p.W.peak_queued, "count");
    ( "reliable.retx_frac",
      ratio (g "reliable.retransmits") (g "reliable.data_sent"),
      "ratio" );
    count "faults.dropped" "faults.dropped";
    count "liveness.deaths" "liveness.deaths";
    count "recovery.pages_rehomed" "recovery.pages_rehomed";
    count "recovery.rollbacks" "recovery.rollbacks";
    ("recovery.added_cycles", g "recovery.added_cycles", "cycles");
    ("gc.minor_words_per_op", ratio p.W.minor_words ops, "words");
    ("gc.major_collections", float_of_int p.W.major_collections, "count");
    ("span.access_s", self Probe.Access, "s");
    ("span.sync_s", self Probe.Sync, "s");
    ("span.engine_s", self Probe.Engine, "s");
    ("span.recovery_s", self Probe.Recovery, "s");
    ("span.unattributed_s", self Probe.Other, "s");
    ("span.wall_s", s_of_ns p.W.wall_ns, "s");
    ("trace_overhead_pct", overhead, "%");
  ]

(* the buckets that partition a traced pass's wall time *)
let partition =
  [ "span.access_s"; "span.sync_s"; "span.engine_s"; "oracle.verify_s";
    "span.recovery_s"; "span.unattributed_s" ]

(* layers idle outside the workload that drives them *)
let zero_outside =
  [
    ( "zoo_update",
      [ "proto.updates_sent"; "proto.pushes_sent"; "proto.stale_frac";
        "proto.flushes"; "adaptive.switches" ] );
    ( "lossy_recover",
      [ "flow.spilled"; "reliable.retx_frac"; "faults.dropped";
        "liveness.deaths"; "recovery.pages_rehomed"; "recovery.rollbacks";
        "recovery.added_cycles" ] );
  ]

(* A cell fails when it raised, failed its oracle or invariants, missed
   its pinned digest, or disagrees with the same cell in the first pass
   (which also holds traced passes to the untraced digests). *)
let failures passes =
  let first = (List.hd passes).W.results in
  List.concat_map
    (fun p ->
      List.filter_map
        (fun (r : W.result) ->
          match r.failure with
          | Some msg -> Some (r.id, msg)
          | None -> (
              match List.find_opt (fun (q : W.result) -> q.id = r.id) first with
              | Some q when q.digest <> r.digest ->
                  Some
                    ( r.id,
                      if p.W.traced then "tracing changed the simulated digest"
                      else "digest changed between passes" )
              | _ -> None))
        p.W.results)
    passes

(* --- output --- *)

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (n, v, u) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n
             (number v) u)
         ms)
  ^ "}"

let print_table ms =
  List.iter (fun (n, v, u) -> Printf.printf "  %-26s %s %s\n" n (number v) u) ms

(* --- modes --- *)

let measure w ~seed ~seconds ~trace =
  let pins = if seed = W.default_seed then Some Pins.table else None in
  let deadline = Probe.now_ns () + (seconds * 1_000_000_000) in
  (* Untraced and traced passes alternate, and at least one of each runs.
     Another pass starts only if one as long as the last ends in time. *)
  let rec go acc traced =
    let t0 = Probe.now_ns () in
    let acc = W.pass w ~seed ~pins ~traced :: acc in
    let t1 = Probe.now_ns () in
    let untraced_only = not (List.exists (fun p -> p.W.traced) acc) in
    if t1 + (t1 - t0) <= deadline || (trace && untraced_only) then
      go acc (trace && not traced)
    else List.rev acc
  in
  go [] false

let run ~workload ~seed ~seconds ~trace ~commit =
  let w = W.make workload in
  Printf.printf "host: cores=%d ocaml=%s commit=%s\n"
    (Domain.recommended_domain_count ()) Sys.ocaml_version commit;
  Printf.printf "workload=%s seed=%d seconds=%d trace=%b scale=%g nodes=%d\n%!"
    w.W.name seed seconds trace w.W.scale w.W.nodes;
  let passes = measure w ~seed ~seconds ~trace in
  let failed = failures passes in
  List.iter (fun (id, msg) -> Printf.eprintf "FAILED %s: %s\n" id msg) failed;
  let attempted =
    List.fold_left (fun n p -> n + List.length p.W.results) 0 passes
  in
  let metrics = if trace then per_layer passes else end_to_end passes in
  Printf.printf "passes=%d cells=%d failed=%d failed_frac=%g\n"
    (List.length passes) attempted (List.length failed)
    (ratio (float_of_int (List.length failed)) (float_of_int attempted));
  Printf.printf "unscaled host wall %s s (wall_s before the host-speed scaling)\n"
    (number (wall ~time:(fun r -> float_of_int r.W.ns) (untraced passes)));
  print_table metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n"
    (failed = []) attempted (List.length failed) (json_metrics metrics)

(* Print the default-seed digests of a workload as [Pins.table] entries. *)
let print_pins ~workload =
  let p =
    W.pass (W.make workload) ~seed:W.default_seed ~pins:None ~traced:false
  in
  List.iter
    (fun (r : W.result) ->
      match r.failure with
      | Some msg -> Printf.eprintf "FAILED %s: %s\n" r.id msg
      | None ->
          Printf.printf "    (%S, [ %s ]);\n" r.id
            (String.concat "; " (List.map string_of_int r.digest)))
    p.W.results

(* Tiny-input version of every workload: cells verify, tracing is inert,
   every metric prints, the partition adds up to the traced wall time, and
   a corrupted pinned digest is caught. *)
let self_test () =
  let ok = ref true in
  let check cond what =
    if not cond then begin
      ok := false;
      Printf.printf "self-test FAILED: %s\n%!" what
    end
  in
  List.iter
    (fun name ->
      let w = W.make ~tiny:true name in
      let seed = W.default_seed in
      let passes =
        [ W.pass w ~seed ~pins:None ~traced:false;
          W.pass w ~seed ~pins:None ~traced:true ]
      in
      let failed = failures passes in
      List.iter (fun (id, msg) -> Printf.printf "  %s: %s\n" id msg) failed;
      check (failed = []) (name ^ ": cells verify, tracing inert");
      let layers = per_layer passes in
      Printf.printf "{\"workload\": \"%s\", \"metrics\": %s}\n" name
        (json_metrics (end_to_end passes @ layers));
      let get n =
        match List.find_opt (fun (m, _, _) -> m = n) layers with
        | Some (_, v, _) -> v
        | None -> nan
      in
      List.iter
        (fun (home, zeros) ->
          if name <> home then
            List.iter
              (fun n ->
                check (get n = 0.0)
                  (Printf.sprintf "%s: %s reads %g outside %s" name n (get n)
                     home))
              zeros)
        zero_outside;
      let total = List.fold_left (fun acc n -> acc +. get n) 0.0 partition in
      check
        (Float.abs (total -. get "span.wall_s") <= 1e-6)
        (Printf.sprintf "%s: self times sum to %.9f s, traced wall is %.9f s"
           name total (get "span.wall_s"));
      let pinned =
        List.map
          (fun (r : W.result) -> (r.id, r.digest))
          (List.hd passes).W.results
      in
      let victim = fst (List.hd pinned) in
      let corrupted =
        List.map
          (fun (id, d) ->
            if id = victim then (id, List.map succ d) else (id, d))
          pinned
      in
      let p = W.pass w ~seed ~pins:(Some corrupted) ~traced:false in
      check
        (List.map fst (failures [ p ]) = [ victim ])
        (name ^ ": a corrupted pinned digest is caught as one failed cell"))
    W.names;
  Printf.printf "self-test %s\n" (if !ok then "passed" else "FAILED");
  if !ok then 0 else 1

let () =
  let workload = ref "" and seed = ref W.default_seed and seconds = ref 10 in
  let trace = ref false and commit = ref "unknown" and mode = ref `Run in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" W.names);
      ("--seed", Arg.Set_int seed, " input seed (default 1: pinned digests)");
      ("--seconds", Arg.Set_int seconds, " measuring time per run");
      ( "--trace",
        Arg.Symbol ([ "0"; "1" ], fun v -> trace := v = "1"),
        " 0: end-to-end metrics, 1: per-layer" );
      ("--commit", Arg.Set_string commit, " commit recorded in the output");
      ("--pins", Arg.Unit (fun () -> mode := `Pins), " print pinned digests");
      ("--self-test", Arg.Unit (fun () -> mode := `Self_test), " tiny checks");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  (* TT_* switches change the program being measured *)
  (match
     List.filter
       (fun kv -> String.length kv > 3 && String.sub kv 0 3 = "TT_")
       (Array.to_list (Unix.environment ()))
   with
  | [] -> ()
  | set ->
      Printf.eprintf "perfbench: refusing to run with %s set\n"
        (String.concat " " set);
      exit 2);
  match !mode with
  | `Self_test -> exit (self_test ())
  | `Pins -> print_pins ~workload:!workload
  | `Run ->
      run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace
        ~commit:!commit
