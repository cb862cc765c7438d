(** Protocol-zoo shootout: the app x protocol x node-count grid behind
    [tt proto].

    Every cell runs one catalog app ({!Catalog.all_names} — the Figure 3/4
    apps plus the synthetic migratory and producer-consumer companions) on
    one protocol machine ({!Catalog.protocols}, plus the hand-written EM3D
    ["update"] reference row on the EM3D app) and verifies the results
    against the app's sequential oracle.  Simulated cycles, message counts
    and adaptive switch counts are deterministic, so the rendered table and
    JSON are diff-stable across hosts and [--domains] values. *)

type cell = {
  app : string;
  proto : string;
  nodes : int;
  cycles : int;
  msgs : int;  (** sequenced sends, request + response vnets *)
  switches : int;  (** adaptive policy switches (0 off the adaptive machine) *)
  cpu_s : float;  (** host CPU seconds (not rendered) *)
}

val default_nodes : int list
(** [[8; 16]] *)

val run :
  ?apps:string list -> ?protos:string list -> ?nodes:int list ->
  ?scale:float -> ?cache_kb:int -> ?domains:int -> unit -> cell list
(** Run the grid (small data sets, default scale 0.25, default [protos]
    {!Catalog.protocols}), one verified {!Run.cell} per cell.  When the
    apps include ["em3d"] and [protos] lacks ["update"], an ["update"]
    reference row is added for it.  [domains > 1] fans the cells out bit-identically
    ({!Tt_sim.Domains.map}). *)

val adaptive_regressions : ?tolerance:float -> cell list -> string list
(** Grid points where adaptive exceeds the best static protocol by more
    than [tolerance] (default 5%); empty means the adaptive gate passes. *)

val render : cell list -> string
(** Deterministic table plus per-point adaptive-vs-best-static and EM3D
    headline summary lines. *)

val total_cpu_s : cell list -> float

val to_json : cell list -> string
(** Deterministic JSON for the ["protozoo"] key of BENCH_RESULTS.json:
    [{"cells": [...], "em3d_update_win_pct": {...},
    "adaptive_max_over_best_static_pct": ...}]. *)
