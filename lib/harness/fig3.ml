type cell = {
  config_label : string;
  dirnnb_cycles : int;
  stache_cycles : int;
}

type row = { bench : string; data_set : string; cells : cell list }

let configs =
  [ (Catalog.Small, 4 * 1024);
    (Catalog.Small, 16 * 1024);
    (Catalog.Small, 64 * 1024);
    (Catalog.Small, 256 * 1024);
    (Catalog.Large, 256 * 1024) ]

let config_label (size, cache) =
  Printf.sprintf "%s/%dK" (Catalog.size_label size) (cache / 1024)

let ratio c = float_of_int c.stache_cycles /. float_of_int c.dirnnb_cycles

let run ?(apps = Catalog.names) ?(scale = 1.0) ?(nodes = 32) ?(verify = false)
    ?(domains = 0) () =
  let grid =
    List.concat_map
      (fun name ->
        List.concat_map
          (fun config -> [ (name, config, "dirnnb"); (name, config, "stache") ])
          configs)
      apps
  in
  let cycles =
    Tt_sim.Domains.map ~domains
      (fun (name, (size, cache), machine) ->
        let params =
          Params.with_cache { Params.default with Params.nodes } cache
        in
        (Run.cell ~verify (Catalog.make ~name ~size ~scale, machine, params))
          .Run.cycles)
      grid
    |> List.combine grid
  in
  let get key = List.assoc key cycles in
  List.map
    (fun name ->
      {
        bench = name;
        data_set =
          Catalog.data_set_description ~name ~size:Catalog.Small ~scale;
        cells =
          List.map
            (fun config ->
              { config_label = config_label config;
                dirnnb_cycles = get (name, config, "dirnnb");
                stache_cycles = get (name, config, "stache") })
            configs;
      })
    apps

let render rows =
  let columns =
    ("benchmark", Tt_util.Tablefmt.Left)
    :: List.map
         (fun c -> (config_label c, Tt_util.Tablefmt.Right))
         configs
  in
  let ratios =
    Tt_util.Tablefmt.create
      ~title:
        "Figure 3: execution time of Typhoon/Stache relative to DirNNB \
         (ratio < 1 means Typhoon/Stache is faster)"
      ~columns
  in
  List.iter
    (fun row ->
      Tt_util.Tablefmt.add_row ratios
        (row.bench
        :: List.map (fun c -> Printf.sprintf "%.2f" (ratio c)) row.cells))
    rows;
  let raw =
    Tt_util.Tablefmt.create ~title:"Figure 3 raw cycles (dirnnb / stache)"
      ~columns
  in
  List.iter
    (fun row ->
      Tt_util.Tablefmt.add_row raw
        (row.bench
        :: List.map
             (fun c ->
               Printf.sprintf "%d / %d" c.dirnnb_cycles c.stache_cycles)
             row.cells))
    rows;
  Tt_util.Tablefmt.render ratios ^ "\n" ^ Tt_util.Tablefmt.render raw
