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
