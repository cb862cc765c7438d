(** Point-to-point interconnect.

    Constant-latency delivery (Table 2: 11 cycles), matching the paper's
    stated modelling level ("the simulations do not accurately model network
    … contention").  Each node registers one receiver — its network
    interface (NP or hardware directory controller) — which is invoked as an
    engine event at the arrival time.  Messages from a node to itself
    short-circuit the network (§5.1) and are delivered after 1 cycle.

    Per-virtual-network message and word counts are recorded for the traffic
    comparisons behind Figures 3 and 4. *)

type t

val create :
  Tt_sim.Engine.t -> nodes:int -> latency:int -> ?words_per_cycle:int ->
  unit -> t
(** [words_per_cycle] enables the optional contention model: arrivals at a
    node are serialized through its network port at that payload bandwidth
    (the paper's model is contention-free; this is the [ablation] knob).
    At most [2^20] messages are in flight; a send that would exceed that
    raises {!Overload.Overload} — with the {!Flow} credit layer above, a
    pure safety net. *)

val nodes : t -> int

val latency : t -> int

val words_per_cycle : t -> int option
(** The contention model's port bandwidth; [None] when contention-free. *)

val set_receiver : t -> node:int -> (Message.t -> unit) -> unit
(** Must be set for every node before traffic reaches it. *)

val send : t -> at:int -> Message.t -> unit
(** Inject a message at absolute time [at] (the sender's clock); it is
    delivered to the destination's receiver at [at + latency] (engine-time
    clamped so causality holds even if the sender's clock lags global
    time). *)

val stats : t -> Tt_util.Stats.t
(** Counters: [msgs.request], [msgs.response], [words.request],
    [words.response], [msgs.local]. *)
