(** User-level synchronization over Tempest (§2, footnote 1).

    The paper models barriers as a fixed-latency hardware primitive
    (Table 2) but notes that Tempest is expected to grow synchronization
    primitives.  This library shows they need nothing beyond the existing
    mechanisms: atomic counters live in their home node's NP (handlers are
    serialized, so a handler *is* a critical section) and a sense-reversing
    barrier is one fetch-and-add plus a broadcast of release messages.

    All operations block the calling CPU thread and charge realistic
    message costs, so they are directly comparable to the hardware
    barrier — see the [ablation_msg_barrier] benchmark. *)

type t

val install : Tt_typhoon.System.t -> t
(** Register the handlers; call once per system, before use. *)

type counter

val alloc_counter :
  t -> th:Tt_sim.Thread.t -> node:int -> home:int -> init:int -> counter
(** An atomic counter resident at [home]'s NP. *)

val fetch_add :
  t -> th:Tt_sim.Thread.t -> node:int -> counter -> int -> int
(** Atomically add to the counter and return the *previous* value.  Blocks
    the calling thread for the message round trip (local counters
    short-circuit the network). *)

type barrier

val alloc_barrier :
  t -> th:Tt_sim.Thread.t -> node:int -> home:int -> participants:int ->
  barrier
(** A reusable sense-reversing barrier coordinated by [home]'s NP. *)

val barrier_wait : t -> th:Tt_sim.Thread.t -> node:int -> barrier -> unit
(** Arrive and block until all participants have arrived: one arrival
    message per participant, one release message back — 2·(P−1) network
    messages per episode. *)

val stats : t -> Tt_util.Stats.t
(** [fetch_adds], [barrier_episodes]. *)
