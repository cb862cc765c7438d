(** Figure 3: execution time of Typhoon/Stache relative to DirNNB.

    Five benchmarks × five configurations — the small data set with 4 K,
    16 K, 64 K and 256 K CPU caches, and the large data set with 256 K —
    each run on both systems; the reported value is
    [stache cycles / dirnnb cycles] (shorter bars = Typhoon/Stache wins,
    exactly as in the paper's chart). *)

type cell = {
  config_label : string;  (** e.g. "small/4K" *)
  dirnnb_cycles : int;
  stache_cycles : int;
}

type row = { bench : string; data_set : string; cells : cell list }

val configs : (Catalog.size * int) list
(** [(size, cache_bytes)] in the figure's legend order. *)

val run :
  ?apps:string list -> ?scale:float -> ?nodes:int -> ?verify:bool ->
  ?domains:int -> unit -> row list
(** Defaults: all five apps, scale 1.0 (paper data sets), 32 nodes, verify
    off (the oracle check roughly doubles wall-clock).  Each (app,
    configuration, machine) is one {!Run.cell}; [domains > 1] fans them
    out bit-identically ({!Tt_sim.Domains.map}). *)

val ratio : cell -> float

val render : row list -> string
(** ASCII rendition of the figure (ratio per config), plus raw cycles. *)
