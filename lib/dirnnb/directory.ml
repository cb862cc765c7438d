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

type t = { node_count : int; entries : entry Inttbl.t }

let create ~nodes = { node_count = nodes; entries = Inttbl.create 4096 }

let entry t ~block =
  match Inttbl.find_opt t.entries block with
  | Some e -> e
  | None ->
      let e =
        { sharers = Tt_util.Bitset.create t.node_count; owner = None;
          busy = None; overflowed = false; waiting = Queue.create () }
      in
      Inttbl.replace t.entries block e;
      e

let find t ~block = Inttbl.find_opt t.entries block

let iter t f = Inttbl.iter f t.entries

let nodes t = t.node_count
