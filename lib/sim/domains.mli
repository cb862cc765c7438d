(** Deterministic fan-out of independent simulations across OCaml 5
    domains. *)

val map : domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** Deterministic parallel map over independent work items (the harness
    sweep grids): results are in input order, and a failure re-raises the
    earliest item's exception.  [domains <= 1] degrades to [List.map] on
    the calling domain.  Items must not share mutable state. *)
