open Tt_app

type app = {
  app_name : string;
  body : Env.t -> unit;
  verify : Env.t -> unit;
  work_items : int;
}

type size = Small | Large

let size_label = function Small -> "small" | Large -> "large"

let names = [ "appbt"; "barnes"; "mp3d"; "ocean"; "em3d" ]

let all_names = names @ [ "synthmig"; "synthpc" ]

(* Synthetic shootout companions: a migratory locked-counter stress and a
   phase-structured producer-consumer channel (the patterns the zoo's
   Migratory and Prodcons/Delayed policies target). *)
let synthmig_config ~size ~scale =
  let words, ops = match size with Small -> 64, 400 | Large -> 256, 2000 in
  let ops = max 50 (int_of_float (float_of_int ops *. scale)) in
  { Tt_app.Synth.default with
    Tt_app.Synth.words_per_proc = words;
    ops_per_proc = ops;
    write_pct = 50;
    remote_pct = 80;
    run_length = 2;
    sharing = Tt_app.Synth.Locked_counters;
    seed = 7 }

let synthpc_config ~size ~scale =
  let words, epochs = match size with Small -> 64, 32 | Large -> 256, 12 in
  let words = max 16 (int_of_float (float_of_int words *. scale)) in
  { Tt_app.Synth.default with
    Tt_app.Synth.words_per_proc = words;
    sharing = Tt_app.Synth.Producer_consumer;
    epochs;
    seed = 11 }

let make ~name ~size ~scale ~nprocs =
  match name with
  | "synthmig" ->
      let cfg = synthmig_config ~size ~scale in
      let i = Tt_app.Synth.make cfg ~nprocs in
      { app_name = name; body = i.Tt_app.Synth.body;
        verify = i.Tt_app.Synth.verify;
        work_items = cfg.Tt_app.Synth.ops_per_proc * nprocs }
  | "synthpc" ->
      let cfg = synthpc_config ~size ~scale in
      let i = Tt_app.Synth.make cfg ~nprocs in
      { app_name = name; body = i.Tt_app.Synth.body;
        verify = i.Tt_app.Synth.verify;
        work_items =
          cfg.Tt_app.Synth.words_per_proc * cfg.Tt_app.Synth.epochs * nprocs }
  | "appbt" ->
      let base = match size with Small -> Appbt.small | Large -> Appbt.large in
      let cfg = if scale = 1.0 then base else Appbt.scale base scale in
      let i = Appbt.make cfg ~nprocs in
      { app_name = name; body = i.Appbt.body; verify = i.Appbt.verify;
        work_items = cfg.Appbt.n * cfg.Appbt.n * cfg.Appbt.n }
  | "barnes" ->
      let base = match size with Small -> Barnes.small | Large -> Barnes.large in
      let cfg = if scale = 1.0 then base else Barnes.scale base scale in
      let i = Barnes.make cfg ~nprocs in
      { app_name = name; body = i.Barnes.body; verify = i.Barnes.verify;
        work_items = cfg.Barnes.bodies }
  | "mp3d" ->
      let base = match size with Small -> Mp3d.small | Large -> Mp3d.large in
      let cfg = if scale = 1.0 then base else Mp3d.scale base scale in
      let i = Mp3d.make cfg ~nprocs in
      { app_name = name; body = i.Mp3d.body; verify = i.Mp3d.verify;
        work_items = cfg.Mp3d.molecules }
  | "ocean" ->
      let base = match size with Small -> Ocean.small | Large -> Ocean.large in
      let cfg = if scale = 1.0 then base else Ocean.scale base scale in
      let i = Ocean.make cfg ~nprocs in
      { app_name = name; body = i.Ocean.body; verify = i.Ocean.verify;
        work_items = cfg.Ocean.n * cfg.Ocean.n }
  | "em3d" ->
      let base = match size with Small -> Em3d.small | Large -> Em3d.large in
      let cfg = if scale = 1.0 then base else Em3d.scale base scale in
      let i = Em3d.make cfg ~nprocs in
      { app_name = name; body = i.Em3d.body; verify = i.Em3d.verify;
        work_items = i.Em3d.edges }
  | other -> invalid_arg (Printf.sprintf "Catalog.make: unknown app %S" other)

let data_set_description ~name ~size ~scale =
  let suffix = if scale = 1.0 then "" else Printf.sprintf " (x%.2f)" scale in
  let pick small large = match size with Small -> small | Large -> large in
  (match name with
  | "synthmig" ->
      let cfg = synthmig_config ~size ~scale in
      Printf.sprintf "%d locked words/proc, %d ops"
        cfg.Tt_app.Synth.words_per_proc cfg.Tt_app.Synth.ops_per_proc
  | "synthpc" ->
      let cfg = synthpc_config ~size ~scale in
      Printf.sprintf "%d words/proc, %d epochs" cfg.Tt_app.Synth.words_per_proc
        cfg.Tt_app.Synth.epochs
  | "appbt" ->
      let base = pick Appbt.small Appbt.large in
      let cfg = if scale = 1.0 then base else Appbt.scale base scale in
      Printf.sprintf "%dx%dx%d" cfg.Appbt.n cfg.Appbt.n cfg.Appbt.n
  | "barnes" ->
      let base = pick Barnes.small Barnes.large in
      let cfg = if scale = 1.0 then base else Barnes.scale base scale in
      Printf.sprintf "%d bodies" cfg.Barnes.bodies
  | "mp3d" ->
      let base = pick Mp3d.small Mp3d.large in
      let cfg = if scale = 1.0 then base else Mp3d.scale base scale in
      Printf.sprintf "%d mols" cfg.Mp3d.molecules
  | "ocean" ->
      let base = pick Ocean.small Ocean.large in
      let cfg = if scale = 1.0 then base else Ocean.scale base scale in
      Printf.sprintf "%dx%d grid" cfg.Ocean.n cfg.Ocean.n
  | "em3d" ->
      let base = pick Em3d.small Em3d.large in
      let cfg = if scale = 1.0 then base else Em3d.scale base scale in
      Printf.sprintf "%d nodes, degree %d" cfg.Em3d.total_nodes cfg.Em3d.degree
  | other -> invalid_arg (Printf.sprintf "Catalog: unknown app %S" other))
  ^ suffix

(* the protocol shootout's default list: the transparent default, the zoo
   and the adaptive switcher *)
let protocols =
  [ "stache"; "migratory"; "prodcons"; "widerep"; "delayed"; "adaptive" ]
