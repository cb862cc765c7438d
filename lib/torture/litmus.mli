(** Litmus shapes and their sequential-consistency outcome oracle.

    A litmus test is a tiny SPMD program — a few reads, writes, and
    lock-guarded increments per processor over one or two shared locations
    — together with the {e exact} set of observable outcomes sequential
    consistency allows.  Stache and DirNNB both implement an SC memory
    system (single-writer/multi-reader invalidation protocols over a
    reliable transport), so {e every} run, under any fault pattern and any
    same-timestamp schedule perturbation, must land its observables inside
    the allowed set; one outcome outside it is a protocol bug.  This is the
    TransForm/litmus methodology aimed at user-level protocol code, where
    Tempest turns coherence bugs into application bugs.

    Abstract values are small ints: locations start at [0], writes store
    constants in [1..15], and a lock-guarded increment extends a [0,1,2,…]
    chain.  The torture runner maps these to per-iteration concrete
    encodings so a value leaked across iterations (a stale copy surviving
    an invalidation) is detected by decoding, not just by outcome shape —
    see {!Torture}. *)

type op =
  | Write of { loc : int; v : int }  (** store abstract constant [v] ∈ 1..15 *)
  | Read of { loc : int; reg : int }  (** load into observable register *)
  | Incr of { loc : int; reg : int }
      (** load into [reg] then store [reg+1].  Atomic in the oracle, so it
          must always be lock-guarded in a shape: the real execution is a
          separate read and write, and the oracle's atomicity is exactly
          the mutual exclusion the lock is supposed to provide. *)
  | Lock of int
  | Unlock of int

type t = {
  name : string;
  doc : string;
  nprocs : int;
  nlocs : int;
  nregs : int;
  nlocks : int;
  progs : op array array;
  allowed : (int array, unit) Hashtbl.t;
      (** allowed observable vectors, [regs ++ final mem], enumerated by
          {!make} (eagerly: grid cells on worker domains read it) *)
}

val max_value : int
(** Largest abstract value the concrete encoding can carry (15). *)

val make :
  name:string -> doc:string -> ?nlocks:int -> nlocs:int -> nregs:int ->
  op list list -> t
(** One [op list] per processor.  Rejects writes outside the 1..15
    encoding. *)

val allowed : t -> (int array, unit) Hashtbl.t
(** The SC oracle: every observable vector reachable by {e some} total
    interleaving of the processors' op streams that respects program order,
    reads-last-write, and lock mutual exclusion — i.e. exhaustive
    enumeration of sequentially consistent executions. *)

val allowed_count : t -> int

val check : t -> regs:int array -> locs:int array -> bool
(** Is this run's observable vector (final register values, final memory
    values, both in abstract form) sequentially consistent? *)

(** The shapes: store buffering, message passing, load buffering, coherence
    read-read and write-write, independent reads of independent writes, and
    lock atomicity (4-processor lock-guarded counter). *)

val sb : t
val mp : t
val lb : t
val corr : t
val coww : t
val iriw : t
val lock_atomic : t

val all : t list

val names : string list

val by_name : string -> t
(** Case-insensitive; raises [Invalid_argument] on unknown names. *)

val pp_obs : Format.formatter -> int array * int array -> unit
(** Render an observable vector as [regs=[..] mem=[..]]. *)
