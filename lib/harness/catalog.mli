(** Uniform access to the five benchmarks (Table 3). *)

type app = {
  app_name : string;
  body : Tt_app.Env.t -> unit;
  verify : Tt_app.Env.t -> unit;
  work_items : int;
      (** app-specific unit count (edges for em3d, cells, bodies …) for
          per-item metrics *)
}

type size = Small | Large

val size_label : size -> string

val names : string list
(** ["appbt"; "barnes"; "mp3d"; "ocean"; "em3d"] — Figure 3's order. *)

val make :
  name:string -> size:size -> scale:float -> nprocs:int -> app
(** [scale] < 1.0 shrinks the Table 3 data set for wall-clock-bounded runs
    (recorded in run output).  @raise Invalid_argument for unknown names. *)

val data_set_description : name:string -> size:size -> scale:float -> string
(** e.g. "12x12x12" — the Table 3 cell, adjusted for scale. *)

val all_names : string list
(** {!names} plus the synthetic shootout companions ["synthmig"] (migratory
    locked counters) and ["synthpc"] (phase-structured producer-consumer
    channel). *)

val protocols : string list
(** The protocol shootout's default list ({!Protozoo.default_protos}), all
    of them {!Machine.names}: ["stache"] (the transparent default), the zoo
    (["migratory"], ["prodcons"], ["widerep"], ["delayed"]) and
    ["adaptive"] (per-page runtime switching). *)
