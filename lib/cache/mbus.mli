(** MBus transaction vocabulary (§5.4).

    On a cache miss or upgrade the CPU issues a bus transaction.  In Typhoon
    the NP snoops these: transactions on blocks whose tag permits the access
    proceed to memory (with the NP asserting the "shared" line for ReadOnly
    blocks), all others are inhibited and become block access faults. *)

type transaction =
  | Read  (** read miss: acquire a copy *)
  | Read_invalidate  (** write miss: acquire an owned copy *)
  | Invalidate  (** write hit on an unowned (Shared) line: upgrade *)

type snoop_result =
  | Allow of { shared : bool }
      (** memory may respond; [shared] set means the CPU must cache the line
          Shared rather than Exclusive *)
  | Inhibit  (** snooper asserted inhibit + relinquish-and-retry: the access
                 becomes a block access fault *)

val access_of : transaction -> Tt_mem.Tag.access
(** The tag-check semantics of a transaction: [Read] checks as a load, the
    other two as stores. *)

