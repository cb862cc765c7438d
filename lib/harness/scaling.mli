(** Node-count scaling sweeps past the paper's 32-node machine.

    The paper evaluates a fixed 32-node CM-5; this sweep re-runs the
    Figure 3 applications on both systems at 64, 128 and 256 nodes to
    check that the simulation (and the event queue feeding it) sustains
    the larger machines, and how the Typhoon/Stache-to-DirNNB
    ratio moves as the same data set is cut ever finer.

    Simulated cycle counts are deterministic — independent of host and of
    wall-clock — so the rendered table is diff-stable and gates
    [scripts/check_all.sh].
    Host CPU seconds are reported separately per point and never appear
    in {!render} or {!to_json}. *)

type point = {
  app : string;
  nodes : int;
  dirnnb_cycles : int;
  stache_cycles : int;
  cpu_s : float;  (** host CPU seconds for the pair of runs (not rendered) *)
}

val default_nodes : int list
(** [[64; 128; 256]] *)

val run :
  ?apps:string list -> ?proto:string -> ?nodes:int list -> ?scale:float ->
  ?cache_kb:int -> ?domains:int -> unit -> point list
(** Defaults: all five Figure 3 apps, {!default_nodes}, scale 0.25 of the
    small data set, 256 KB CPU caches.  [proto] (default ["stache"])
    selects the Typhoon-side machine for the [stache_cycles] column, by its
    {!Machine.of_name} name.  Points come out app-major in the
    order given.  [domains > 1] fans the (app, nodes) grid cells out over
    that many worker domains ({!Tt_sim.Domains.map}); cycle counts and
    point order are bit-identical to the sequential sweep.  Note [cpu_s]
    is process CPU time: with concurrent cells the per-point deltas
    overlap and overcount — compare wall-clock, not their sum. *)

val ratio : point -> float
(** [stache_cycles / dirnnb_cycles] — below 1.0 means Typhoon/Stache wins. *)

val render : ?proto:string -> point list -> string
(** Deterministic ASCII table (simulated cycles and ratios only); pass the
    same [proto] as {!run} to label the Typhoon column (the default
    ["stache"] renders the historical header). *)

val total_cpu_s : point list -> float

val to_json : point list -> string
(** Deterministic JSON: [{"points": [{app, nodes, dirnnb_cycles,
    stache_cycles}, ...]}] — for [TT_BENCH_JSON] capture into
    BENCH_RESULTS.json. *)
