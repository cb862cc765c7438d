type point = {
  pct_remote : int;
  dirnnb : float;
  stache : float;
  update : float;
}

let run ?(pcts = [ 0; 10; 20; 30; 40; 50 ]) ?(scale = 1.0) ?(nodes = 32)
    ?(verify = false) ?(domains = 0) () =
  let base = Tt_app.Em3d.large in
  let base = if scale = 1.0 then base else Tt_app.Em3d.scale base scale in
  let grid =
    List.concat_map
      (fun pct -> [ (pct, "dirnnb"); (pct, "stache"); (pct, "update") ])
      pcts
  in
  let params = { Params.default with Params.nodes } in
  let per_edge =
    Tt_sim.Domains.map ~domains
      (fun (pct, machine) ->
        let c = { base with Tt_app.Em3d.pct_remote = pct } in
        let m = Run.cell ~verify (Catalog.em3d c, machine, params) in
        (* The paper's y-axis is execution cycles per edge *handled by one
           processor*: execution time (max processor cycles) divided by the
           edges each processor traverses.  The warm-up iteration's cycles
           are included, so count its edges too. *)
        let edges_per_proc =
          m.Run.work_items * (c.Tt_app.Em3d.iters + 1) / nodes
        in
        float_of_int m.Run.cycles /. float_of_int edges_per_proc)
      grid
    |> List.combine grid
  in
  let get key = List.assoc key per_edge in
  List.map
    (fun pct ->
      { pct_remote = pct; dirnnb = get (pct, "dirnnb");
        stache = get (pct, "stache"); update = get (pct, "update") })
    pcts

let render points =
  let table =
    Tt_util.Tablefmt.create
      ~title:
        "Figure 4: EM3D cycles per edge vs % non-local edges (large data \
         set)"
      ~columns:
        [ ("% non-local", Tt_util.Tablefmt.Right);
          ("DirNNB", Tt_util.Tablefmt.Right);
          ("Typhoon/Stache", Tt_util.Tablefmt.Right);
          ("Typhoon/Update", Tt_util.Tablefmt.Right);
          ("update vs dirnnb", Tt_util.Tablefmt.Right) ]
  in
  List.iter
    (fun p ->
      Tt_util.Tablefmt.add_row table
        [ string_of_int p.pct_remote;
          Printf.sprintf "%.1f" p.dirnnb;
          Printf.sprintf "%.1f" p.stache;
          Printf.sprintf "%.1f" p.update;
          Printf.sprintf "%+.0f%%" (100.0 *. ((p.update /. p.dirnnb) -. 1.0)) ])
    points;
  Tt_util.Tablefmt.render table

let advantage_at points pct =
  match List.find_opt (fun p -> p.pct_remote = pct) points with
  | Some p -> 1.0 -. (p.update /. p.dirnnb)
  | None -> invalid_arg "Fig4.advantage_at: percentage not measured"
