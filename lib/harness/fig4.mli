(** Figure 4: EM3D update-protocol performance.

    Cycles per edge (per steady-state iteration) as the percentage of
    non-local edges sweeps 0..50 %, for DirNNB, Typhoon/Stache and
    Typhoon/Update (the custom delayed-update protocol of §4).  The paper
    runs the large data set (192,000 nodes, degree 15). *)

type point = {
  pct_remote : int;
  dirnnb : float;  (** cycles per edge *)
  stache : float;
  update : float;
}

val run :
  ?pcts:int list -> ?scale:float -> ?nodes:int -> ?verify:bool ->
  ?domains:int -> unit -> point list
(** Defaults: 0,10,20,30,40,50 %, scale 1.0 (large data set), 32 nodes,
    verify off.  Each (percentage, machine) is one {!Run.cell}; [domains >
    1] fans them out bit-identically ({!Tt_sim.Domains.map}). *)

val render : point list -> string

val advantage_at : point list -> int -> float
(** [advantage_at points 50] = 1 - update/dirnnb at the given percentage
    (the paper reports ≈ 0.35 at 50 %). *)
