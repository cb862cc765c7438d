let max_pointers = 6

type repr = Pointers of int list (* sorted, ≤ 6 *) | Vector of Tt_util.Bitset.t

type t = {
  nodes : int;
  mutable repr : repr;
  mutable overflows : int;
}

let create ~nodes = { nodes; repr = Pointers []; overflows = 0 }

(* Monomorphic walks of the sorted pointer list: no polymorphic compare,
   no closure. *)
let rec mem_sorted (n : int) = function
  | [] -> false
  | x :: rest -> x = n || (x < n && mem_sorted n rest)

let rec insert (n : int) = function
  | x :: rest when x < n -> x :: insert n rest
  | l -> n :: l

let rec drop (n : int) = function
  | [] -> []
  | x :: rest -> if x = n then rest else x :: drop n rest

let mem t n =
  match t.repr with
  | Pointers l -> mem_sorted n l
  | Vector v -> Tt_util.Bitset.mem v n

let add t n =
  if n < 0 || n >= t.nodes then invalid_arg "Sharers.add: node out of range";
  match t.repr with
  | Pointers l when mem_sorted n l -> ()
  | Pointers l when List.length l < max_pointers ->
      t.repr <- Pointers (insert n l)
  | Pointers l ->
      (* overflow: fall back to the bit vector held in the first four
         pointer bytes *)
      let v = Tt_util.Bitset.create t.nodes in
      List.iter (Tt_util.Bitset.add v) (n :: l);
      t.overflows <- t.overflows + 1;
      t.repr <- Vector v
  | Vector v -> Tt_util.Bitset.add v n

let remove t n =
  match t.repr with
  | Pointers l -> t.repr <- Pointers (drop n l)
  | Vector v -> Tt_util.Bitset.remove v n

let count t =
  match t.repr with
  | Pointers l -> List.length l
  | Vector v -> Tt_util.Bitset.cardinal v

let is_empty t = count t = 0

let to_list t =
  match t.repr with Pointers l -> l | Vector v -> Tt_util.Bitset.to_list v

let clear t = t.repr <- Pointers []

let is_overflowed t = match t.repr with Pointers _ -> false | Vector _ -> true

let overflow_events t = t.overflows
