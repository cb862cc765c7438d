(* Protocol-zoo shootout: app x protocol x node-count grid. *)

type cell = {
  app : string;
  proto : string;
  nodes : int;
  cycles : int;
  msgs : int; (* sequenced sends, request + response vnets *)
  switches : int; (* adaptive policy switches (0 off the adaptive machine) *)
  cpu_s : float;
}

let default_nodes = [ 8; 16 ]

let run ?(apps = Catalog.all_names) ?(protos = Catalog.protocols)
    ?(nodes = default_nodes) ?(scale = 0.25) ?(cache_kb = 256) ?(domains = 0)
    () =
  let grid =
    List.concat_map
      (fun app ->
        List.concat_map
          (fun n ->
            let protos =
              (* the EM3D hand-written update protocol rides along as a
                 reference row, so the table holds the Figure 4 headline
                 (update vs invalidate on EM3D) next to the zoo's generic
                 policies; it only makes sense where its allocator kinds
                 exist *)
              if app = "em3d" && not (List.mem "update" protos) then
                protos @ [ "update" ]
              else protos
            in
            List.map (fun proto -> (app, proto, n)) protos)
          nodes)
      apps
  in
  (* cells are self-contained simulations, so they fan out over worker
     domains bit-identically (same guarantee as the scaling sweep); every
     cell is verified against the app's sequential oracle *)
  Tt_sim.Domains.map ~domains
    (fun (app, proto, nodes) ->
      let params =
        Params.with_cache { Params.default with Params.nodes } (cache_kb * 1024)
      in
      let m =
        Run.cell ~verify:true
          (Catalog.make ~name:app ~size:Catalog.Small ~scale, proto, params)
      in
      { app; proto; nodes; cycles = m.Run.cycles; msgs = m.Run.msgs;
        switches = m.Run.switches; cpu_s = m.Run.cpu_s })
    grid

(* --- analysis --- *)

let cell_of cells ~app ~nodes ~proto =
  List.find_opt
    (fun c -> c.app = app && c.nodes = nodes && c.proto = proto)
    cells

(* Best static protocol for one (app, nodes) point: the zoo plus the
   transparent default, excluding adaptive itself (and the EM3D reference
   row, which is not a generic policy). *)
let best_static cells ~app ~nodes =
  List.fold_left
    (fun best c ->
      if
        c.app = app && c.nodes = nodes && c.proto <> "adaptive"
        && c.proto <> "update"
      then
        match best with
        | Some b when b.cycles <= c.cycles -> best
        | _ -> Some c
      else best)
    None cells

(* every (app, nodes) point that has both an adaptive row and a static
   one, in sorted order: (adaptive cell, best static cell) *)
let adaptive_vs_best cells =
  List.sort_uniq compare (List.map (fun c -> (c.app, c.nodes)) cells)
  |> List.filter_map (fun (app, nodes) ->
         match
           (cell_of cells ~app ~nodes ~proto:"adaptive",
            best_static cells ~app ~nodes)
         with
         | Some a, Some b -> Some (a, b)
         | _ -> None)

(* Adaptive-vs-best-static gate: at every such point adaptive must be
   within [tolerance] of the best static protocol.  Returns the offending
   descriptions (empty = pass). *)
let adaptive_regressions ?(tolerance = 0.05) cells =
  List.filter_map
    (fun (a, b) ->
      let limit =
        int_of_float (ceil (float_of_int b.cycles *. (1.0 +. tolerance)))
      in
      if a.cycles > limit then
        Some
          (Printf.sprintf
             "%s at %d nodes: adaptive %d cycles > %.0f%% over best static \
              (%s, %d cycles)"
             a.app a.nodes a.cycles (tolerance *. 100.0) b.proto b.cycles)
      else None)
    (adaptive_vs_best cells)

(* EM3D headline: cycles saved by the update protocol over the invalidate
   baseline, in percent, per node count (Figure 4's point). *)
let em3d_update_wins cells =
  List.filter_map
    (fun c ->
      if c.app = "em3d" && c.proto = "update" then
        match cell_of cells ~app:"em3d" ~nodes:c.nodes ~proto:"stache" with
        | Some base when base.cycles > 0 ->
            Some
              ( c.nodes,
                100.0
                *. (1.0 -. (float_of_int c.cycles /. float_of_int base.cycles))
              )
        | _ -> None
      else None)
    cells

let render cells =
  let table =
    Tt_util.Tablefmt.create
      ~title:
        "protocol shootout: simulated cycles and messages per app x \
         protocol x nodes"
      ~columns:
        [ ("app", Tt_util.Tablefmt.Left); ("nodes", Tt_util.Tablefmt.Right);
          ("protocol", Tt_util.Tablefmt.Left);
          ("cycles", Tt_util.Tablefmt.Right);
          ("msgs", Tt_util.Tablefmt.Right);
          ("switches", Tt_util.Tablefmt.Right);
          ("vs stache", Tt_util.Tablefmt.Right) ]
  in
  List.iter
    (fun c ->
      let vs =
        match cell_of cells ~app:c.app ~nodes:c.nodes ~proto:"stache" with
        | Some base when base.cycles > 0 && c.proto <> "stache" ->
            Printf.sprintf "%.2f"
              (float_of_int c.cycles /. float_of_int base.cycles)
        | _ -> "-"
      in
      Tt_util.Tablefmt.add_row table
        [ c.app; string_of_int c.nodes; c.proto; string_of_int c.cycles;
          string_of_int c.msgs;
          (if c.proto = "adaptive" then string_of_int c.switches else "-");
          vs ])
    cells;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Tt_util.Tablefmt.render table);
  List.iter
    (fun (a, b) ->
      Buffer.add_string buf
        (Printf.sprintf
           "%s at %d nodes: best static %s (%d cycles), adaptive %d cycles \
            (%+.1f%%)\n"
           a.app a.nodes b.proto b.cycles a.cycles
           (100.0 *. ((float_of_int a.cycles /. float_of_int b.cycles) -. 1.0))))
    (adaptive_vs_best cells);
  List.iter
    (fun (nodes, win) ->
      Buffer.add_string buf
        (Printf.sprintf
           "em3d at %d nodes: update protocol saves %.1f%% of cycles vs the \
            invalidate baseline\n"
           nodes win))
    (em3d_update_wins cells);
  Buffer.contents buf

let total_cpu_s cells = List.fold_left (fun a c -> a +. c.cpu_s) 0.0 cells

let to_json cells =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"cells\": [\n";
  let last = List.length cells - 1 in
  List.iteri
    (fun i c ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"app\": %S, \"proto\": %S, \"nodes\": %d, \"cycles\": %d, \
            \"msgs\": %d, \"switches\": %d}%s\n"
           c.app c.proto c.nodes c.cycles c.msgs c.switches
           (if i < last then "," else "")))
    cells;
  Buffer.add_string buf "  ],\n";
  (let wins = em3d_update_wins cells in
   Buffer.add_string buf "  \"em3d_update_win_pct\": {";
   List.iteri
     (fun i (nodes, win) ->
       Buffer.add_string buf
         (Printf.sprintf "%s\"%d\": %.1f" (if i > 0 then ", " else "") nodes
            win))
     wins;
   Buffer.add_string buf "},\n");
  let worst =
    List.fold_left
      (fun worst (a, b) ->
        let over = (float_of_int a.cycles /. float_of_int b.cycles) -. 1.0 in
        if over > worst then over else worst)
      0.0 (adaptive_vs_best cells)
  in
  Buffer.add_string buf
    (Printf.sprintf "  \"adaptive_max_over_best_static_pct\": %.1f\n}\n"
       (100.0 *. worst));
  Buffer.contents buf
