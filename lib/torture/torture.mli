(** Consistency torture harness: litmus grids, perturbed schedules,
    fault injection, and shrinking of failing cases.

    One torture case is a point
    [(litmus, machine, reliability, perturb-seed, fault-seed)]: a
    {!Litmus} shape run for [iters] iterations on a freshly built Stache
    or DirNNB machine, optionally behind the {!Tt_net.Faults} injector
    (drop/dup/reorder at the {!Tt_harness.Faultsweep} taxonomy), with the
    engine's same-timestamp tie-breaking perturbed by seeded salts.  Every
    iteration's observables are checked against the shape's SC oracle, and
    values are encoded per-iteration so a stale copy that survived an
    invalidation is caught by decoding even when its outcome vector looks
    SC-legal.

    Determinism: a case is a pure function of its fields.  Tie-break salts
    are a pure hash of (perturb-seed, site); fault decisions come from the
    injector's sequential PRNG but are intercepted by a tap that consumes
    the stream identically whether decisions are applied, masked, or
    replayed from a {!Trace} journal.  Masked runs are how the {!shrink}
    driver probes: ddmin over the recorded active fault sites, then over
    the active perturbation sites, then the iteration count (iterations
    are a simulation prefix, so truncation preserves site indices).  The
    shrunk reproducer is written as a small text artifact that
    [tt torture --replay] re-executes decision-for-decision. *)

type case = {
  litmus : string;  (** {!Litmus.by_name} key *)
  machine : string;  (** a {!Tt_harness.Machine.names} entry *)
  drop : float;  (** 0.0 = Perfect transport; otherwise the
                     {!Tt_harness.Faultsweep.config_of} taxonomy *)
  fault_seed : int;
  perturb_rate : float;  (** fraction of scheduling decisions salted;
                             0.0 = tie-break hook not installed *)
  perturb_seed : int;
  iters : int;
  sabotage : bool;  (** run with the Stache sabotage knob on *)
}

type kind =
  | Sc  (** observable vector outside the SC-allowed set *)
  | Stale  (** concrete value from another iteration's encoding band *)
  | Hang  (** watchdog expiry or deadlock *)
  | Link  (** reliable transport gave up *)
  | Invariant  (** post-run directory/tag audit failed *)
  | Crash  (** protocol code raised *)

type violation = { kind : kind; iter : int; detail : string }
(** [iter] is [-1] for violations not tied to one iteration. *)

type outcome = Pass | Fail of violation

type result = {
  outcome : outcome;
  cycles : int;  (** 0 when the run raised *)
  perturb_sites : int;  (** total tie-break decisions drawn *)
  fault_sites : int;  (** total fault decisions drawn *)
  trace : Trace.t;  (** applied non-neutral decisions, always recorded *)
}

type mode =
  | Generate  (** natural decisions from the case's seeds *)
  | Masked of { perturb_keep : int list; fault_keep : int list }
      (** natural decisions only at the kept sites, neutral elsewhere;
          [Masked] with every active site kept is identical to [Generate] *)
  | Replay of Trace.t  (** journal decisions, neutral at absent sites *)

val machines : string list
(** The default grid machines: ["stache"; "dirnnb"].  {!run} and {!grid}
    accept every {!Tt_harness.Machine.names} entry except ["update"], whose
    hand-written protocol assumes owners-compute.  The update family
    (["widerep"], ["delayed"], ["adaptive"]) relies on data-race freedom,
    so racy litmus shapes may legitimately fail with [Sc]/[Stale] there
    (diagnosed staleness, never silent corruption). *)

val kind_to_string : kind -> string

val run : ?mode:mode -> ?tweak_params:(Params.t -> Params.t) -> case -> result
(** Execute one case.  Observable (SC/stale) violations recorded before a
    crash take priority over the crash itself, so the shrinker keys on
    stable evidence.  [case.sabotage] becomes the machine's
    [Params.sabotage], so it holds for this run's machine alone.

    [tweak_params] adjusts the machine parameters after the litmus shape
    sets the node count — overload tests use it to shrink flow-control
    credits and queue capacities without widening the [case] record (whose
    encoding is a stable artifact format).  A run wedged by exhausted
    capacities surfaces as [Fail Hang] carrying the watchdog's or the
    overflow path's diagnostic, never as a silent hang. *)

val default_seeds : int list
(** [[1..8]]. *)

val grid :
  ?litmus:string list -> ?machines:string list -> ?drops:float list ->
  ?seeds:int list -> ?iters:int -> ?perturb_rate:float -> ?sabotage:bool ->
  unit -> case list
(** The default smoke grid: every litmus shape × {stache, dirnnb} ×
    {perfect, drop 5%} × 8 seeds, 4 iterations, perturbation rate 0.25.
    [sabotage] (default [false]) seeds Stache's coherence bug in every
    case. *)

val run_grid : ?domains:int -> case list -> (case * result) list
(** [domains > 1] fans the independent cases out over worker domains
    ({!Tt_sim.Domains.map}); results and their order are bit-identical to
    the sequential grid. *)

val failures : (case * result) list -> (case * result) list

val render : (case * result) list -> string

type shrunk = {
  s_case : case;  (** iteration count minimized *)
  s_trace : Trace.t;  (** the reproducer's journal *)
  s_violation : violation;
  s_perturb_before : int;
  s_perturb_after : int;
  s_fault_before : int;
  s_fault_after : int;
  s_iters_before : int;
}

val shrink : ?probe_budget:int -> case -> (shrunk, string) Stdlib.result
(** Minimize a failing case: ddmin the active fault sites, then the active
    perturbation sites, then the iteration count, preserving the original
    violation {e kind} at every step.  [Error] when the case passes or the
    final reproducer diverges. *)

val write_artifact : string -> shrunk -> unit
(** Write a runnable reproducer (text: case fields, expected violation
    kind, and the {!Trace} journal) for [tt torture --replay]. *)

val read_artifact : string -> case * Trace.t * kind

val replay : string -> case * kind * result
(** Load an artifact and re-execute it in [Replay] mode; compare the
    returned result's outcome against the expected kind. *)
