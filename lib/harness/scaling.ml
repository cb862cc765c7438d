type point = {
  app : string;
  nodes : int;
  dirnnb_cycles : int;
  stache_cycles : int;
  cpu_s : float;
}

let default_nodes = [ 64; 128; 256 ]

let ratio p = float_of_int p.stache_cycles /. float_of_int p.dirnnb_cycles

let run_one ~app ~proto ~nodes ~scale ~cache_kb =
  let t0 = Sys.time () in
  let params =
    Params.with_cache { Params.default with Params.nodes } (cache_kb * 1024)
  in
  let measure machine =
    let inst =
      Catalog.make ~name:app ~size:Catalog.Small ~scale ~nprocs:nodes
    in
    (Run.spmd machine ~name:inst.Catalog.app_name inst.Catalog.body)
      .Run.cycles
  in
  let dirnnb_cycles = measure (Machine.dirnnb params) in
  let stache_cycles = measure (Machine.of_name proto params) in
  { app; nodes; dirnnb_cycles; stache_cycles; cpu_s = Sys.time () -. t0 }

let run ?(apps = Catalog.names) ?(proto = "stache") ?(nodes = default_nodes)
    ?(scale = 0.25) ?(cache_kb = 256) ?(domains = 0) () =
  (* Each grid cell is a self-contained pair of simulations — machines,
     fabrics, threads all private to the cell — so the cells fan out over
     worker domains untouched and the cycle columns are bit-identical to
     the sequential sweep; only wall-clock changes. *)
  List.concat_map (fun app -> List.map (fun n -> (app, n)) nodes) apps
  |> Tt_sim.Domains.map ~domains (fun (app, n) ->
         run_one ~app ~proto ~nodes:n ~scale ~cache_kb)

let render ?(proto = "stache") points =
  let typhoon_col =
    if proto = "stache" then "Typhoon/Stache" else "Typhoon/" ^ proto
  in
  let table =
    Tt_util.Tablefmt.create
      ~title:
        (Printf.sprintf
           "scaling sweep: simulated cycles per node count (ratio < 1 means \
            %s is faster)"
           typhoon_col)
      ~columns:
        [ ("benchmark", Tt_util.Tablefmt.Left);
          ("nodes", Tt_util.Tablefmt.Right);
          ("DirNNB", Tt_util.Tablefmt.Right);
          (typhoon_col, Tt_util.Tablefmt.Right);
          ("ratio", Tt_util.Tablefmt.Right) ]
  in
  List.iter
    (fun p ->
      Tt_util.Tablefmt.add_row table
        [ p.app; string_of_int p.nodes; string_of_int p.dirnnb_cycles;
          string_of_int p.stache_cycles; Printf.sprintf "%.2f" (ratio p) ])
    points;
  Tt_util.Tablefmt.render table

let total_cpu_s points = List.fold_left (fun a p -> a +. p.cpu_s) 0.0 points

let to_json points =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n  \"points\": [\n";
  let last = List.length points - 1 in
  List.iteri
    (fun i p ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"app\": %S, \"nodes\": %d, \"dirnnb_cycles\": %d, \
            \"stache_cycles\": %d}%s\n"
           p.app p.nodes p.dirnnb_cycles p.stache_cycles
           (if i < last then "," else "")))
    points;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf
