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
  { Synth.default with
    Synth.words_per_proc = words;
    ops_per_proc = ops;
    write_pct = 50;
    remote_pct = 80;
    run_length = 2;
    sharing = Synth.Locked_counters;
    seed = 7 }

let synthpc_config ~size ~scale =
  let words, epochs = match size with Small -> 64, 32 | Large -> 256, 12 in
  let words = max 16 (int_of_float (float_of_int words *. scale)) in
  { Synth.default with
    Synth.words_per_proc = words;
    sharing = Synth.Producer_consumer;
    epochs;
    seed = 11 }

let em3d cfg ~nprocs =
  let i = Em3d.make cfg ~nprocs in
  { app_name = "em3d"; body = i.Em3d.body; verify = i.Em3d.verify;
    work_items = i.Em3d.edges }

let synth ~name cfg ~nprocs =
  let i = Synth.make cfg ~nprocs in
  let per_proc =
    match cfg.Synth.sharing with
    | Synth.Producer_consumer -> cfg.Synth.words_per_proc * cfg.Synth.epochs
    | Synth.Private_writes | Synth.Locked_counters -> cfg.Synth.ops_per_proc
  in
  { app_name = name; body = i.Synth.body; verify = i.Synth.verify;
    work_items = per_proc * nprocs }

(* One app at [size] and [scale]: its Table 3 data-set description and
   its builder, from the same configuration. *)
let entry ~name ~size ~scale =
  let sized small large shrink =
    let base = match size with Small -> small | Large -> large in
    if scale = 1.0 then base else shrink base scale
  in
  let app body verify work_items =
    { app_name = name; body; verify; work_items }
  in
  match name with
  | "synthmig" ->
      let cfg = synthmig_config ~size ~scale in
      ( Printf.sprintf "%d locked words/proc, %d ops" cfg.Synth.words_per_proc
          cfg.Synth.ops_per_proc,
        synth ~name cfg )
  | "synthpc" ->
      let cfg = synthpc_config ~size ~scale in
      ( Printf.sprintf "%d words/proc, %d epochs" cfg.Synth.words_per_proc
          cfg.Synth.epochs,
        synth ~name cfg )
  | "appbt" ->
      let cfg = sized Appbt.small Appbt.large Appbt.scale in
      let n = cfg.Appbt.n in
      ( Printf.sprintf "%dx%dx%d" n n n,
        fun ~nprocs ->
          let i = Appbt.make cfg ~nprocs in
          app i.Appbt.body i.Appbt.verify (n * n * n) )
  | "barnes" ->
      let cfg = sized Barnes.small Barnes.large Barnes.scale in
      ( Printf.sprintf "%d bodies" cfg.Barnes.bodies,
        fun ~nprocs ->
          let i = Barnes.make cfg ~nprocs in
          app i.Barnes.body i.Barnes.verify cfg.Barnes.bodies )
  | "mp3d" ->
      let cfg = sized Mp3d.small Mp3d.large Mp3d.scale in
      ( Printf.sprintf "%d mols" cfg.Mp3d.molecules,
        fun ~nprocs ->
          let i = Mp3d.make cfg ~nprocs in
          app i.Mp3d.body i.Mp3d.verify cfg.Mp3d.molecules )
  | "ocean" ->
      let cfg = sized Ocean.small Ocean.large Ocean.scale in
      let n = cfg.Ocean.n in
      ( Printf.sprintf "%dx%d grid" n n,
        fun ~nprocs ->
          let i = Ocean.make cfg ~nprocs in
          app i.Ocean.body i.Ocean.verify (n * n) )
  | "em3d" ->
      let cfg = sized Em3d.small Em3d.large Em3d.scale in
      ( Printf.sprintf "%d nodes, degree %d" cfg.Em3d.total_nodes
          cfg.Em3d.degree,
        em3d cfg )
  | other -> invalid_arg (Printf.sprintf "Catalog.make: unknown app %S" other)

let make ~name ~size ~scale = snd (entry ~name ~size ~scale)

let data_set_description ~name ~size ~scale =
  fst (entry ~name ~size ~scale)
  ^ if scale = 1.0 then "" else Printf.sprintf " (x%.2f)" scale

(* the protocol shootout's default list: every Typhoon machine but the
   hand-written EM3D protocol, in catalogue order *)
let protocols =
  List.filter (fun m -> m <> "dirnnb" && m <> "update") Machine.names
