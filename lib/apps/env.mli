(** Application execution environment (SPMD).

    Benchmarks are single-program-multiple-data OCaml functions: the same
    body runs once per simulated processor, parameterized by this record.
    The record is the only way an application touches the machine, so the
    identical program runs unmodified on DirNNB and on Typhoon/Stache —
    the paper's "existing shared-memory programs only need to be linked with
    the Stache library".

    Host-level values (OCaml refs shared between the per-processor closures)
    may carry addresses and sizes computed by processor 0 during setup, but
    all *data* the benchmark computes on must live in simulated shared
    memory via [read]/[write]. *)

type t = {
  proc : int;
  nprocs : int;
  (* shared-memory accesses (64-bit values) *)
  read : int -> float;
  write : int -> float -> unit;
  read_int : int -> int;
  write_int : int -> int -> unit;
  (* local computation: charge [n] cycles *)
  work : int -> unit;
  (* nonbinding software prefetch hint; no-op on machines without one *)
  prefetch : int -> unit;
  (* synchronization *)
  barrier : unit -> unit;
  lock : int -> unit;  (** acquire lock [i] from the global lock table *)
  unlock : int -> unit;
  (* shared-heap allocation; call from processor 0 during setup phases *)
  alloc : ?home:int -> int -> int;
  alloc_kind : string -> ?home:int -> int -> int;
      (** allocate memory managed by a named custom protocol (e.g. EM3D's
          update-protocol pages); falls back to [alloc] when the machine has
          no protocol of that name *)
  (* protocol-specific entry points (e.g. the EM3D update protocol's
     end-of-step flush); no-op when the machine provides none *)
  hook : string -> unit;
  has_hook : string -> bool;
}

val word : int
(** Bytes per shared value (8). *)
