(** A run-to-completion controller: the one dispatch loop of the Typhoon
    NP and DirNNB's directory engine.

    It owns a cycle clock and runs queued items one at a time, never
    preempted.  The owner's queues ({!Ring}s) and their order are reached
    through the [serve] it passes to {!run}.  After each item the loop
    keeps draining inline ({!Engine.skip_to}) while every queued engine
    event is strictly later than its clock, which is observably identical
    to one event per item; otherwise it yields, {!Engine.reserve}-ing the
    place of a dispatch that would only mark it idle when nothing is
    queued.  {!kick} claims that place or schedules at [max clock now].
    Dispatching allocates nothing. *)

module Ring : sig
  (** A growable FIFO of items stamped with monotone ready times. *)

  type 'a t

  val create : 'a -> 'a t
  (** An empty ring; the argument fills vacated slots. *)

  val length : 'a t -> int

  val push : 'a t -> at:int -> 'a -> unit
  (** Append an item that becomes ready at [at]. *)

  val ready : 'a t -> int -> bool
  (** [ready r clock]: the head item is ready at [clock]. *)

  val next : 'a t -> int
  (** Ready time of the head item, or [max_int] when empty. *)

  val pop : 'a t -> 'a
  (** Remove the head item of a non-empty ring. *)
end

type t

val create : Engine.t -> t
(** An idle controller at clock 0. *)

val run : t -> 'q -> serve:('q -> int -> int) -> depth:('q -> int) -> unit
(** The dispatch loop over the owner's queues [q].  [serve q clock] runs
    the highest-priority item ready at [clock] and returns [clock]; with
    none ready it runs nothing and returns the earliest ready time of a
    queued item, or [max_int] when nothing is queued.  [depth q] is the
    number of queued items. *)

val install : t -> (unit -> unit) -> unit
(** Install the dispatch closure [fun () -> run t q ~serve ~depth] (before
    the first {!kick}); with top-level [serve] and [depth], [run] and
    both calls inline into it. *)

val kick : t -> unit
(** The owner queued an item: start the loop unless it is running. *)

val clock : t -> int

val set_clock : t -> int -> unit
(** Move the clock, for recovery code that pulls a controller up to the
    current cycle. *)

val charge : t -> int -> unit
(** Charge cycles to the clock (meaningful while an item runs). *)

val handled : t -> int
(** Items run so far. *)

val busy_cycles : t -> int
(** Cycles charged while running items. *)
