(** SPMD experiment runner.

    Spawns one CPU thread per node running the same application body,
    provides it the {!Tt_app.Env.t} for its processor, drives the simulation
    to completion and reports execution time (the paper's metric: maximum
    processor cycle count) plus merged statistics. *)

type result = {
  app_name : string;
  machine_label : string;
  cycles : int;  (** execution time: max over processors *)
  proc_cycles : int array;
  run_stats : Tt_util.Stats.t;
}

exception Stuck of string
(** Raised when the event queue drains with unfinished processors (protocol
    deadlock or a lost wakeup — always a bug). *)

val spmd :
  Machine.t -> name:string -> ?check:bool -> ?watchdog:Watchdog.t ->
  (Tt_app.Env.t -> unit) -> result
(** [check] (default true) verifies machine invariants after the run.
    [watchdog] (default none) drives the engine under cycle/retransmission
    budgets and raises {!Watchdog.Expired} on livelock. *)

val verified : ?watchdog:Watchdog.t -> Machine.t -> Catalog.app -> result
(** The app's body (invariants checked), then its verify pass against the
    sequential oracle on the same machine under the same [watchdog]; the
    body run's result.  A failing oracle raises. *)

(** What one experiment cell reports. *)
type measure = {
  cycles : int;  (** the body run's execution time *)
  msgs : int;  (** sequenced sends, request + response vnets *)
  switches : int;  (** adaptive policy switches (0 off the adaptive machine) *)
  work_items : int;  (** the app instance's {!Catalog.app.work_items} *)
  cpu_s : float;  (** host CPU seconds for the whole cell (not simulated) *)
}

val cell :
  verify:bool -> (nprocs:int -> Catalog.app) * string * Params.t -> measure
(** One experiment cell [(app, machine, params)]: the machine from
    {!Machine.of_name}, a fresh app instance at [params]' node count (apps
    carry per-run state, so cells never share one), run — through
    {!verified} when [verify] — and measured.  The figures and sweeps map
    their grids through it with {!Tt_sim.Domains.map}. *)
