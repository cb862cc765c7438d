module Inttbl = Tt_util.Inttbl

type kind = Read | Read_ex | Upgrade

type txn = { kind : kind; requester : int; mutable acks_left : int }

type entry = {
  sharers : Tt_util.Bitset.t;
  mutable owner : int option;
  mutable busy : txn option;
  mutable overflowed : bool;
  waiting : (kind * int) Queue.t;
}

(* [entries] is the record ([iter] walks it, so its order is the crash
   purge's send order); [rows] indexes the same entries by page, one
   [blocks_per_page]-entry row per vpage, so [entry] finds a block without
   hashing.  Entries are never removed, so a row slot, once set, stays
   right. *)
type t = {
  node_count : int;
  entries : entry Inttbl.t;
  rows : entry array Tt_util.Dense.t;
}

let bpp = Tt_mem.Addr.blocks_per_page

let fresh nodes =
  { sharers = Tt_util.Bitset.create nodes; owner = None; busy = None;
    overflowed = false; waiting = Queue.create () }

let no_entry = fresh 0

let no_row = [||]

let create ~nodes =
  { node_count = nodes; entries = Inttbl.create 4096;
    rows = Tt_util.Dense.create ~absent:no_row }

let held t block =
  let row = Tt_util.Dense.get t.rows (block / bpp) in
  if row == no_row then no_entry else row.(block mod bpp)

let entry t ~block =
  let e = held t block in
  if e != no_entry then e
  else
    match Inttbl.find_opt t.entries block with
    | Some e -> e (* a page outside the dense window *)
    | None ->
        let e = fresh t.node_count in
        Inttbl.replace t.entries block e;
        let vpage = block / bpp in
        if
          Tt_util.Dense.get t.rows vpage != no_row
          || Tt_util.Dense.set t.rows vpage (Array.make bpp no_entry)
        then (Tt_util.Dense.get t.rows vpage).(block mod bpp) <- e;
        e

let find t ~block = Inttbl.find_opt t.entries block

let iter t f = Inttbl.iter f t.entries

let nodes t = t.node_count
