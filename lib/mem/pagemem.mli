(** Per-node paged memory with per-block access tags.

    One [Pagemem.t] models a node's local DRAM plus the authoritative backing
    store of the RTLB: each mapped virtual page owns 4 KB of data, 128 block
    tags, a 4-bit page mode (selects the user fault handler), a home-node
    field and an uninterpreted user word (§5.4's "48 bits of uninterpreted
    state", here an extensible OCaml value so protocols can hang real
    structures off it).

    Modelling note (see DESIGN.md §5): the paper's RTLB is indexed by
    *physical* page; because every node maps a virtual page to at most one
    frame at a time, indexing by virtual page is behaviourally identical, so
    we key everything by virtual page and dispense with explicit frames.  A
    page-count ceiling stands in for physical-memory capacity.

    Lookups go through a 1-entry MRU translation cache (invalidated on
    {!unmap}): same-page access streaks — the overwhelmingly common case —
    skip the page table entirely, and the rest index a dense page array
    ({!Tt_util.Dense}) before falling back to the table. *)

type user_info = ..
(** Protocols extend this with their per-page state (e.g. Stache home-page
    directories). *)

type user_info += No_info

type page = {
  data : Bytes.t;  (** 4096 bytes *)
  tags : Bytes.t;  (** 128 tag bytes, one per 32-byte block *)
  mutable mode : int;  (** 4-bit page mode, selects fault handlers *)
  mutable home : int;  (** home node id *)
  mutable user : user_info;
}

type t

val create : ?max_pages:int -> node:int -> unit -> t
(** [max_pages] bounds the number of simultaneously mapped pages (physical
    capacity); default unbounded. *)

val node : t -> int

val page_count : t -> int

val max_pages : t -> int option

val is_mapped : t -> vpage:int -> bool

val find_page : t -> vpage:int -> page option

val no_page : page
(** The page {!lookup} returns for an unmapped vpage; no vpage maps to it. *)

val lookup : t -> vpage:int -> page
(** [lookup t ~vpage] is the mapped page, or {!no_page} (compare with
    [==]).  Unlike {!find_page} it allocates nothing, for the CPU access
    path. *)

val get_page : t -> vpage:int -> page
(** @raise Invalid_argument if unmapped. *)

val map : t -> vpage:int -> home:int -> mode:int -> init_tag:Tag.t -> page
(** Allocate and map a zeroed page.
    @raise Invalid_argument if already mapped or out of capacity. *)

val unmap : t -> vpage:int -> unit
(** @raise Invalid_argument if not mapped. *)

val invalidate_translation : t -> unit
(** Drop the 1-entry MRU translation cache.  Protocols must call this when a
    page is retyped in place (policy switch, re-homing) so that no access can
    ride a stale cached translation past the mode change. *)

val translation_cached : t -> vpage:int -> bool
(** Whether [vpage] currently occupies the MRU translation slot (test
    observability for the invalidation paths). *)

val iter_pages : t -> (int -> page -> unit) -> unit

(** {2 Tags} *)

val page_tag : page -> index:int -> Tag.t
(** Tag of block [index] (0-127) of an already-resolved page. *)

val get_tag : t -> vaddr:int -> Tag.t
(** Tag of the block containing [vaddr].
    @raise Invalid_argument if the page is unmapped. *)

val set_tag : t -> vaddr:int -> Tag.t -> unit

val set_all_tags : page -> Tag.t -> unit

(** {2 Data access (bypasses tags — Tempest [force-read]/[force-write] are
    built on these; tag checking lives in the machine models)} *)

val read_f64 : t -> vaddr:int -> float
(** @raise Invalid_argument if unmapped or not 8-byte aligned. *)

val write_f64 : t -> vaddr:int -> float -> unit

val read_i64 : t -> vaddr:int -> int64

val write_i64 : t -> vaddr:int -> int64 -> unit

val read_int : t -> vaddr:int -> int
(** 63-bit int stored as i64. *)

val write_int : t -> vaddr:int -> int -> unit

val page_read_f64 : page -> vaddr:int -> float
(** {!read_f64} on a page already translated (the CPU access path looks
    the page up once, for its tag check, and reads it here).
    @raise Invalid_argument if [vaddr] is not 8-byte aligned. *)

val page_write_f64 : page -> vaddr:int -> float -> unit

val page_read_int : page -> vaddr:int -> int

val page_write_int : page -> vaddr:int -> int -> unit

val read_u8 : t -> vaddr:int -> int

val write_u8 : t -> vaddr:int -> int -> unit

val read_block : t -> vaddr:int -> Bytes.t
(** Fresh 32-byte copy of the block containing [vaddr]. *)

val read_block_into : t -> vaddr:int -> dst:Bytes.t -> dst_pos:int -> unit
(** Copy the block containing [vaddr] into [dst] at [dst_pos] without
    allocating. *)

val write_block : t -> vaddr:int -> Bytes.t -> unit
(** Store 32 bytes at the block containing [vaddr]. *)

val write_block_from : t -> vaddr:int -> src:Bytes.t -> src_pos:int -> unit
(** Store the 32 bytes at [src_pos] of [src] into the block containing
    [vaddr] without allocating. *)

val read_bytes : t -> vaddr:int -> len:int -> Bytes.t
(** Copy an arbitrary byte range; must not cross an unmapped page. *)

val read_bytes_into :
  t -> vaddr:int -> dst:Bytes.t -> dst_pos:int -> len:int -> unit
(** Like {!read_bytes} but into a caller-supplied buffer, without
    allocating. *)

val write_bytes : t -> vaddr:int -> Bytes.t -> unit
