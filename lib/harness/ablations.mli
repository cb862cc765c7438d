(** Ablation studies for the design choices DESIGN.md calls out.

    Each returns measured numbers so callers (the CLI, tests) can render
    or assert on them. *)

type directory_result = {
  full_map_cycles : int;
  full_map_invals : int;
  limited_cycles : int;
  limited_invals : int;
  pointer_limit : int;
}

val directory : ?nodes:int -> ?pointer_limit:int -> unit -> directory_result
(** Full-map DirNNB vs. a Dir_iB limited-pointer directory on a
    widely-shared-then-written workload. *)

type contention_result = {
  free_cycles : int;
  contended_cycles : int;
  senders : int;
}

val contention : ?nodes:int -> unit -> contention_result
(** Bulk-transfer fan-in to one node, with and without the finite-port
    bandwidth model. *)

type barrier_result = { hw_cycles : int; msg_cycles : int; participants : int }

val barriers : ?nodes:int -> unit -> barrier_result
(** One barrier episode: the idealized hardware barrier vs. the user-level
    message barrier of [Tt_sync.Msg_sync]. *)

type prefetch_result = {
  plain_cycles : int;
  plain_msgs : int;
  prefetch_cycles : int;
  prefetch_msgs : int;
}

val prefetch : ?nodes:int -> unit -> prefetch_result
(** EM3D on Typhoon/Stache with and without software prefetch — §4's
    "hides latency, does not reduce traffic". *)

val render_all : ?nodes:int -> unit -> string
