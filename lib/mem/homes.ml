module Inttbl = Tt_util.Inttbl
module Dense = Tt_util.Dense

let heap_base = 0x1000_0000

type t = {
  nodes : int;
  table : int Inttbl.t; (* vpage -> home: the record, and the walk order *)
  dense : int Dense.t; (* the same bindings for the lookup; absent = -1 *)
  mutable cursor : int;
  mutable next_home : int; (* round-robin placement cursor *)
  mutable generation : int;
}

let create ~nodes =
  if nodes <= 0 then invalid_arg "Homes.create: nodes must be positive";
  { nodes; table = Inttbl.create 4096; dense = Dense.create ~absent:(-1);
    cursor = heap_base; next_home = 0; generation = 0 }

let find t vpage =
  let h = Dense.get t.dense vpage in
  if h >= 0 then h else Inttbl.find_or t.table vpage ~default:(-1)

let home t ~vpage =
  let h = find t vpage in
  if h < 0 then
    invalid_arg
      (Printf.sprintf "Homes.home: vpage 0x%x is not allocated" vpage);
  h

let set t ~vpage home =
  Inttbl.replace t.table vpage home;
  ignore (Dense.set t.dense vpage home)

let bind t ~vpage ~home =
  if find t vpage >= 0 then
    invalid_arg
      (Printf.sprintf "Homes.bind: vpage 0x%x already allocated" vpage);
  set t ~vpage home

let rehome t ~vpage ~home =
  if find t vpage < 0 then
    invalid_arg
      (Printf.sprintf "Homes.rehome: vpage 0x%x is not allocated" vpage);
  set t ~vpage home;
  t.generation <- t.generation + 1

let generation t = t.generation

let alloc t ~home ~align ~bytes ~place =
  if bytes <= 0 then invalid_arg "Homes.alloc: non-positive size";
  if align <= 0 || align land (align - 1) <> 0 then
    invalid_arg "Homes.alloc: alignment must be a power of two";
  let round_up v a = (v + a - 1) land lnot (a - 1) in
  let start = round_up t.cursor align in
  (* a pinned allocation never shares a page homed elsewhere *)
  let start =
    let existing = find t (Addr.page_of start) in
    match home with
    | Some h when existing >= 0 && existing <> h ->
        round_up start Addr.page_size
    | Some _ | None -> start
  in
  for vpage = Addr.page_of start to Addr.page_of (start + bytes - 1) do
    if find t vpage < 0 then begin
      let h =
        match home with
        | Some h -> h
        | None ->
            let h = t.next_home in
            t.next_home <- (h + 1) mod t.nodes;
            h
      in
      set t ~vpage h;
      place ~vpage ~home:h
    end
  done;
  t.cursor <- start + bytes;
  start

let iter f t = Inttbl.iter f t.table

let bindings t =
  List.sort compare
    (Inttbl.fold (fun vpage h acc -> (vpage, h) :: acc) t.table [])
