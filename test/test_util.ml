(* Unit and property tests for tt_util: PRNG, int heap, int-keyed table,
   vector, bit set, statistics, table formatting, trace guard. *)

module Prng = Tt_util.Prng
module Intheap = Tt_util.Intheap
module Inttbl = Tt_util.Inttbl
module Vec = Tt_util.Vec
module Bitset = Tt_util.Bitset
module Stats = Tt_util.Stats
module Tablefmt = Tt_util.Tablefmt
module Debug = Tt_util.Debug

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ---------------- PRNG ---------------- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:123 and b = Prng.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  check_bool "different seeds diverge" false
    (Prng.next_int64 a = Prng.next_int64 b)

let test_prng_int_bounds () =
  let t = Prng.create ~seed:7 in
  for _ = 1 to 10_000 do
    let v = Prng.int t 13 in
    check_bool "in [0,13)" true (v >= 0 && v < 13)
  done

let test_prng_int_covers_range () =
  let t = Prng.create ~seed:11 in
  let seen = Array.make 8 false in
  for _ = 1 to 1000 do
    seen.(Prng.int t 8) <- true
  done;
  Array.iteri (fun i s -> check_bool (Printf.sprintf "value %d seen" i) true s) seen

let test_prng_int_in () =
  let t = Prng.create ~seed:5 in
  for _ = 1 to 1000 do
    let v = Prng.int_in t ~lo:(-3) ~hi:4 in
    check_bool "in [-3,4]" true (v >= -3 && v <= 4)
  done

let test_prng_float_bounds () =
  let t = Prng.create ~seed:9 in
  for _ = 1 to 1000 do
    let v = Prng.float t 2.5 in
    check_bool "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_prng_chance_extremes () =
  let t = Prng.create ~seed:3 in
  for _ = 1 to 100 do
    check_bool "p=0 never" false (Prng.chance t 0.0)
  done;
  for _ = 1 to 100 do
    check_bool "p=1 always" true (Prng.chance t 1.0)
  done

let test_prng_shuffle_is_permutation () =
  let t = Prng.create ~seed:21 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_prng_split_independent () =
  let parent = Prng.create ~seed:77 in
  let child = Prng.split parent in
  check_bool "child differs from parent" false
    (Prng.next_int64 child = Prng.next_int64 parent)

let test_prng_copy () =
  let a = Prng.create ~seed:13 in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.next_int64 a)
    (Prng.next_int64 b)

let prop_prng_nonnegative =
  QCheck.Test.make ~name:"prng int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let t = Prng.create ~seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Prng.int t bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

(* Outputs recorded from the boxed-state generator this one replaced:
   the unboxed state must reproduce every stream bit for bit. *)
let test_prng_golden () =
  let ints seed =
    let g = Prng.create ~seed in
    List.init 4 (fun _ -> Prng.int g 1_000_000_007)
  in
  let floats seed =
    let g = Prng.create ~seed in
    List.init 3 (fun _ -> Int64.bits_of_float (Prng.float g 1.0))
  in
  let bools seed =
    let g = Prng.create ~seed in
    String.concat "" (List.init 16 (fun _ -> if Prng.bool g then "1" else "0"))
  in
  let split seed =
    let g = Prng.create ~seed in
    let c = Prng.split g in
    let c1 = Prng.next_int64 c in
    let c2 = Prng.next_int64 c in
    [ c1; c2; Prng.next_int64 g ]
  in
  let check_golden seed ~int ~float ~bool ~split:sp =
    let tag what = Printf.sprintf "seed %d %s" seed what in
    Alcotest.(check (list int)) (tag "int") int (ints seed);
    Alcotest.(check (list int64)) (tag "float bits") float (floats seed);
    Alcotest.(check string) (tag "bool") bool (bools seed);
    Alcotest.(check (list int64)) (tag "split child, child, parent") sp
      (split seed)
  in
  check_golden 42
    ~int:[ 249768340; 869527453; 121944468; 953467420 ]
    ~float:[ 0x3fe7bae644c5fd6dL; 0x3fc477f199d93378L; 0x3fd1d499d5c4c3e6L ]
    ~bool:"1100001010100100"
    ~split:[ 0x57e1faba65107204L; 0xf4abd143feb24055L; 0x28efe333b266f103L ];
  check_golden (-7)
    ~int:[ 442774644; 247019922; 187575425; 902632310 ]
    ~float:[ 0x3fdb07861910e08aL; 0x3fdea1fd36af3c64L; 0x3fed0627fc3ae6a0L ]
    ~bool:"0010110111011010"
    ~split:[ 0x1549c43b1b381c21L; 0x5dccd97aafaeeb59L; 0x7a87f4dabcf192aaL ]

(* The state is unboxed: an integer or boolean draw allocates nothing. *)
let test_prng_draws_allocate_nothing () =
  let g = Prng.create ~seed:5 in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    acc := !acc + Prng.int g 97 + if Prng.bool g then 1 else 0
  done;
  let words = Gc.minor_words () -. before in
  check_bool "draws happened" true (!acc > 0);
  Alcotest.(check (float 0.)) "minor words over 10k draws" 0. words

(* ---------------- Intheap ---------------- *)

let test_intheap_basic () =
  let h = Intheap.create ~dummy:"" () in
  check_bool "empty" true (Intheap.is_empty h);
  List.iter (fun k -> Intheap.push h k (string_of_int k)) [ 5; 3; 8; 1 ];
  check_int "length" 4 (Intheap.length h);
  check_int "min_key" 1 (Intheap.min_key h);
  Alcotest.(check string) "pop payload of min" "1" (Intheap.pop_exn h);
  Alcotest.(check string) "next" "3" (Intheap.pop_exn h);
  Intheap.push h 0 "0";
  Alcotest.(check string) "new min" "0" (Intheap.pop_exn h);
  Intheap.clear h;
  check_bool "cleared" true (Intheap.is_empty h)

(* Plain min-heap behaviour of the engine's event heap: ordering with
   duplicate keys, the empty heap, and growth from a tiny capacity. *)

let drain_keys h =
  let rec go acc =
    if Intheap.is_empty h then List.rev acc
    else begin
      let k = Intheap.min_key h in
      check_int "payload matches key" k (Intheap.pop_exn h);
      go (k :: acc)
    end
  in
  go []

let test_heap_basic_order () =
  let h = Intheap.create ~dummy:0 () in
  List.iter (fun k -> Intheap.push h k k) [ 5; 3; 8; 1; 9; 2; 3; -4 ];
  check_int "length" 8 (Intheap.length h);
  check_int "min is first" (-4) (Intheap.min_key h);
  check_int "pop order 1" (-4) (Intheap.pop_exn h);
  check_int "pop order 2" 1 (Intheap.pop_exn h);
  Intheap.push h 0 0;
  check_int "new min" 0 (Intheap.pop_exn h);
  Alcotest.(check (list int)) "rest sorted, duplicates kept"
    [ 2; 3; 3; 5; 8; 9 ] (drain_keys h)

let test_heap_pop_empty () =
  let h = Intheap.create ~dummy:0 () in
  Alcotest.check_raises "min_key on empty"
    (Invalid_argument "Intheap.min_key: empty heap") (fun () ->
      ignore (Intheap.min_key h));
  Alcotest.check_raises "pop_exn on empty"
    (Invalid_argument "Intheap.pop_exn: empty heap") (fun () ->
      ignore (Intheap.pop_exn h));
  Intheap.push h 1 1;
  ignore (Intheap.pop_exn h);
  Alcotest.check_raises "pop_exn once drained"
    (Invalid_argument "Intheap.pop_exn: empty heap") (fun () ->
      ignore (Intheap.pop_exn h))

let test_heap_capacity () =
  List.iter
    (fun capacity ->
      let h = Intheap.create ~capacity ~dummy:0 () in
      for i = 9 downto 0 do
        Intheap.push h i i
      done;
      Alcotest.(check (list int))
        (Printf.sprintf "order preserved across growth from capacity %d"
           capacity)
        [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (drain_keys h);
      Intheap.push h 7 7;
      Intheap.clear h;
      check_bool "clear empties" true (Intheap.is_empty h);
      List.iter (fun k -> Intheap.push h k k) [ 4; 2; 6 ];
      Alcotest.(check (list int)) "reusable after clear" [ 2; 4; 6 ]
        (drain_keys h))
    [ 0; 1; 2 ]

let prop_intheap_sorts =
  QCheck.Test.make ~name:"intheap pops keys in sorted order, keyed payloads"
    ~count:500
    QCheck.(list int)
    (fun keys ->
      let h = Intheap.create ~capacity:1 ~dummy:min_int () in
      List.iter (fun k -> Intheap.push h k k) keys;
      let rec drain acc =
        if Intheap.is_empty h then List.rev acc
        else begin
          let k = Intheap.min_key h in
          let v = Intheap.pop_exn h in
          drain ((k, v) :: acc)
        end
      in
      let got = drain [] in
      List.map fst got = List.sort compare keys
      && List.for_all (fun (k, v) -> k = v) got)

(* Reference: a generic priority queue (polymorphic compare) kept as a
   sorted list. *)
let prop_intheap_interleaved =
  QCheck.Test.make ~name:"intheap agrees with the generic heap" ~count:300
    QCheck.(list (pair bool small_int))
    (fun ops ->
      let h = Intheap.create ~capacity:1 ~dummy:0 () in
      let model = ref [] in
      List.for_all
        (fun (is_push, k) ->
          if is_push then begin
            Intheap.push h k k;
            model := List.sort compare (k :: !model);
            true
          end
          else
            match !model with
            | [] -> Intheap.is_empty h
            | m :: rest ->
                model := rest;
                Intheap.min_key h = m && Intheap.pop_exn h = m)
        ops)

(* Payload slab: cells are recycled through the free-slot stack, so a
   payload must come back with its own key however often slots are reused
   and the heap regrows.  Payloads carry (key, unique id). *)
let prop_intheap_slab_reuse =
  QCheck.Test.make ~name:"intheap slab keeps payloads with their keys"
    ~count:300
    QCheck.(list (pair (int_range 0 9) small_int))
    (fun ops ->
      let h = Intheap.create ~capacity:1 ~dummy:(0, -1) () in
      let live = Hashtbl.create 16 and next_id = ref 0 and ok = ref true in
      List.iter
        (fun (op, k) ->
          if op = 0 then begin
            Intheap.clear h;
            Hashtbl.reset live
          end
          else if op <= 3 then begin
            if Intheap.is_empty h then ok := !ok && Hashtbl.length live = 0
            else begin
              let key = Intheap.min_key h in
              let pk, id = Intheap.pop_exn h in
              ok := !ok && pk = key && Hashtbl.find_opt live id = Some pk;
              Hashtbl.remove live id
            end
          end
          else begin
            Intheap.push h k (k, !next_id);
            Hashtbl.replace live !next_id k;
            incr next_id
          end;
          ok := !ok && Intheap.length h = Hashtbl.length live)
        ops;
      !ok)

let test_intheap_growth_full () =
  let h = Intheap.create ~capacity:4 ~dummy:"" () in
  List.iter (fun k -> Intheap.push h k (string_of_int k)) [ 40; 10; 30; 20 ];
  (* pop two and refill, so the live slots are a permutation when the heap
     fills up again and has to grow *)
  Alcotest.(check string) "pop 10" "10" (Intheap.pop_exn h);
  Alcotest.(check string) "pop 20" "20" (Intheap.pop_exn h);
  List.iter (fun k -> Intheap.push h k (string_of_int k)) [ 5; 35 ];
  check_int "full" 4 (Intheap.length h);
  List.iter (fun k -> Intheap.push h k (string_of_int k)) [ 25; 1; 45; 15; 50 ];
  check_int "grown" 9 (Intheap.length h);
  let rec drain acc =
    if Intheap.is_empty h then List.rev acc
    else drain (Intheap.pop_exn h :: acc)
  in
  Alcotest.(check (list string)) "payloads in key order"
    [ "1"; "5"; "15"; "25"; "30"; "35"; "40"; "45"; "50" ] (drain [])

(* Popped and cleared payloads must not stay reachable from the slab. *)
let test_intheap_releases_payloads () =
  let h = Intheap.create ~capacity:2 ~dummy:(ref (-1)) () in
  let weak = Weak.create 6 in
  let fill () =
    for i = 0 to 5 do
      let p = ref i in
      Weak.set weak i (Some p);
      Intheap.push h i p
    done
  in
  fill ();
  for _ = 1 to 3 do
    ignore (Sys.opaque_identity (Intheap.pop_exn h))
  done;
  Gc.full_major ();
  for i = 0 to 2 do
    check_bool (Printf.sprintf "popped payload %d collected" i) true
      (Weak.get weak i = None)
  done;
  check_bool "live payload kept" true (Weak.get weak 4 <> None);
  Intheap.clear h;
  Gc.full_major ();
  for i = 3 to 5 do
    check_bool (Printf.sprintf "cleared payload %d collected" i) true
      (Weak.get weak i = None)
  done;
  (* the heap itself stays reachable up to here, so only its own release
     of the payloads can have freed them *)
  check_int "cleared heap empty" 0 (Intheap.length h)

(* ---------------- Inttbl ---------------- *)

let test_inttbl_hash_edges () =
  List.iter
    (fun k ->
      check_int (Printf.sprintf "hash %d" k) (Hashtbl.hash k) (Inttbl.hash k))
    [ 0; 1; -1; 2; -2; 42; max_int; min_int; max_int - 1; min_int + 1;
      (1 lsl 30) - 1; 1 lsl 30; (1 lsl 31) - 1; 1 lsl 31; -(1 lsl 31);
      (-1 lsl 31) - 1; 1 lsl 32; -(1 lsl 32); 1 lsl 61; -(1 lsl 61);
      0x1000_0000; 0x2545F4914F6CDD1 ]

type tbl_op =
  | Add of int * int
  | Replace of int * int
  | Remove of int
  | Reset
  | Clear

let tbl_key =
  QCheck.Gen.(
    frequency
      [ (8, int_range (-40) 40);
        (1, oneofl [ max_int; min_int; max_int - 1; min_int + 1 ]);
        (1, int) ])

let tbl_op =
  QCheck.Gen.(
    frequency
      [ (6, map2 (fun k v -> Add (k, v)) tbl_key small_int);
        (6, map2 (fun k v -> Replace (k, v)) tbl_key small_int);
        (4, map (fun k -> Remove k) tbl_key);
        (1, return Reset);
        (1, return Clear) ])

let print_tbl_op = function
  | Add (k, v) -> Printf.sprintf "add %d %d" k v
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Reset -> "reset"
  | Clear -> "clear"

(* Differential: the same operations on [Inttbl] and [Stdlib.Hashtbl] give
   the same lookups and the same walk order through every iterator,
   across duplicate bindings, growth from capacity 0 and extreme keys. *)
let prop_inttbl_matches_hashtbl =
  QCheck.Test.make ~name:"inttbl agrees with Stdlib.Hashtbl, walk order too"
    ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list print_tbl_op)
       QCheck.Gen.(list_size (int_range 0 400) tbl_op))
    (fun ops ->
      let a = Inttbl.create 0 and b = Hashtbl.create 0 in
      let probes = [ 0; 1; -1; 7; -40; 40; max_int; min_int ] in
      let same () =
        let order_a = Inttbl.fold (fun k v acc -> (k, v) :: acc) a [] in
        let order_b = Hashtbl.fold (fun k v acc -> (k, v) :: acc) b [] in
        let iter_a = ref [] and iter_b = ref [] in
        Inttbl.iter (fun k v -> iter_a := (k, v) :: !iter_a) a;
        Hashtbl.iter (fun k v -> iter_b := (k, v) :: !iter_b) b;
        Inttbl.length a = Hashtbl.length b
        && order_a = order_b && !iter_a = !iter_b
        && List.of_seq (Inttbl.to_seq a) = List.of_seq (Hashtbl.to_seq b)
        && List.for_all
             (fun k ->
               Inttbl.find_opt a k = Hashtbl.find_opt b k
               && Inttbl.mem a k = Hashtbl.mem b k
               && Inttbl.find_or a k ~default:(-7)
                  = Option.value ~default:(-7) (Hashtbl.find_opt b k))
             probes
      in
      List.for_all
        (fun op ->
          (match op with
          | Add (k, v) ->
              Inttbl.add a k v;
              Hashtbl.add b k v
          | Replace (k, v) ->
              Inttbl.replace a k v;
              Hashtbl.replace b k v
          | Remove k ->
              Inttbl.remove a k;
              Hashtbl.remove b k
          | Reset ->
              Inttbl.reset a;
              Hashtbl.reset b
          | Clear ->
              Inttbl.clear a;
              Hashtbl.clear b);
          (match op with
          | Add (k, _) | Replace (k, _) | Remove k ->
              Inttbl.find_opt a k = Hashtbl.find_opt b k
          | Reset | Clear -> true)
          && Inttbl.length a = Hashtbl.length b)
        ops
      && same ())

let test_inttbl_find_raises () =
  let t = Inttbl.create 4 in
  Inttbl.add t 3 "three";
  Alcotest.(check string) "find bound" "three" (Inttbl.find t 3);
  Alcotest.check_raises "find unbound" Not_found (fun () ->
      ignore (Inttbl.find t 4))

(* ---------------- Vec ---------------- *)

let test_vec_basic () =
  let v = Vec.create () in
  check_bool "empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v (i * 2)
  done;
  check_int "length" 100 (Vec.length v);
  check_int "get" 42 (Vec.get v 21);
  Vec.set v 21 7;
  check_int "set" 7 (Vec.get v 21);
  Alcotest.(check (option int)) "pop" (Some 198) (Vec.pop v);
  check_int "length after pop" 99 (Vec.length v)

let test_vec_bounds () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Vec: index out of bounds") (fun () ->
      ignore (Vec.get v 3))

let test_vec_conversions () =
  let v = Vec.of_list [ 3; 1; 4; 1; 5 ] in
  Alcotest.(check (list int)) "to_list" [ 3; 1; 4; 1; 5 ] (Vec.to_list v);
  Alcotest.(check (array int)) "to_array" [| 3; 1; 4; 1; 5 |] (Vec.to_array v);
  check_int "fold" 14 (Vec.fold_left ( + ) 0 v);
  let seen = ref [] in
  Vec.iteri (fun i x -> seen := (i, x) :: !seen) v;
  check_int "iteri count" 5 (List.length !seen)

let test_vec_truncate () =
  let v = Vec.of_list [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] in
  Vec.truncate v 4;
  Alcotest.(check (list int)) "prefix kept" [ 0; 1; 2; 3 ] (Vec.to_list v);
  (* truncation keeps storage: growing back within the old footprint must
     see fresh pushes, not stale retained elements *)
  Vec.push v 40;
  Alcotest.(check (list int)) "push after truncate" [ 0; 1; 2; 3; 40 ]
    (Vec.to_list v);
  Vec.truncate v 0;
  check_bool "truncate to empty" true (Vec.is_empty v);
  Alcotest.check_raises "truncate beyond length"
    (Invalid_argument "Vec.truncate") (fun () -> Vec.truncate v 1)

let test_vec_reset_reuses_storage () =
  let v = Vec.create () in
  let fill () =
    for i = 0 to 9_999 do
      Vec.push v i
    done
  in
  fill ();
  (* warm a second time so any lazy growth is done before measuring *)
  Vec.reset v;
  fill ();
  Vec.reset v;
  let before = Gc.minor_words () in
  for _ = 1 to 10 do
    fill ();
    Vec.reset v
  done;
  let allocated = Gc.minor_words () -. before in
  check_int "refill count" 0 (Vec.length v);
  (* ints into a retained backing array: repeated fill/drain cycles must
     not allocate (small slack for the Gc sampling itself) *)
  check_bool
    (Printf.sprintf "no allocation across fill/drain cycles (got %.0f words)"
       allocated)
    true (allocated < 256.)

(* ---------------- Bitset ---------------- *)

let test_bitset_basic () =
  let b = Bitset.create 100 in
  check_bool "initially empty" true (Bitset.is_empty b);
  Bitset.add b 0;
  Bitset.add b 63;
  Bitset.add b 99;
  check_int "cardinal" 3 (Bitset.cardinal b);
  check_bool "mem 63" true (Bitset.mem b 63);
  Bitset.remove b 63;
  check_bool "removed" false (Bitset.mem b 63);
  Alcotest.(check (list int)) "to_list sorted" [ 0; 99 ] (Bitset.to_list b);
  Bitset.clear b;
  check_bool "cleared" true (Bitset.is_empty b)

let test_bitset_range_check () =
  let b = Bitset.create 8 in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Bitset: element out of range") (fun () -> Bitset.add b 8)

let test_bitset_copy_equal () =
  let a = Bitset.create 40 in
  Bitset.add a 5;
  Bitset.add a 35;
  let b = Bitset.copy a in
  check_bool "copies equal" true (Bitset.equal a b);
  Bitset.add b 7;
  check_bool "diverged" false (Bitset.equal a b)

(* Every walk and query against a sorted-list model, at capacities on
   both sides of the 62-bit word boundary. *)
let prop_bitset_model =
  QCheck.Test.make ~name:"bitset agrees with a set model" ~count:500
    QCheck.(
      pair
        (oneofl [ 1; 61; 62; 63; 124; 125; 256 ])
        (list_of_size Gen.(0 -- 300) (pair bool (int_bound 1_000_000))))
    (fun (cap, ops) ->
      let b = Bitset.create cap in
      let model = ref [] in
      List.iter
        (fun (add, r) ->
          let x = r mod cap in
          if add then begin
            Bitset.add b x;
            if not (List.mem x !model) then
              model := List.sort compare (x :: !model)
          end
          else begin
            Bitset.remove b x;
            model := List.filter (( <> ) x) !model
          end)
        ops;
      let m = !model in
      let visited = ref [] in
      Bitset.iter (fun i -> visited := i :: !visited) b;
      Bitset.to_list b = m
      && List.rev !visited = m
      && Bitset.cardinal b = List.length m
      && Bitset.is_empty b = (m = [])
      && List.for_all
           (fun i -> Bitset.mem b i = List.mem i m)
           (List.init cap Fun.id)
      && List.for_all
           (fun i -> Bitset.exists_except b i = List.exists (( <> ) i) m)
           (List.init (cap + 2) (fun i -> i - 1)))

(* ---------------- Stats ---------------- *)

let test_stats_counters () =
  let s = Stats.create "test" in
  check_int "missing reads 0" 0 (Stats.get s "nope");
  Stats.incr s "a";
  Stats.incr s "a";
  Stats.add s "a" 3;
  check_int "incr+add" 5 (Stats.get s "a")

let test_stats_observe_mean () =
  let s = Stats.create "test" in
  List.iter (Stats.observe s "lat") [ 10; 20; 30 ];
  check_int "count" 3 (Stats.get s "lat.count");
  check_int "sum" 60 (Stats.get s "lat.sum");
  check_int "min" 10 (Stats.get s "lat.min");
  check_int "max" 30 (Stats.get s "lat.max");
  Alcotest.(check (float 0.001)) "mean" 20.0 (Stats.mean s "lat")

let test_stats_merge () =
  let a = Stats.create "a" and b = Stats.create "b" in
  Stats.add a "x" 5;
  Stats.add b "x" 7;
  Stats.set_max a "m" 10;
  Stats.set_max b "m" 4;
  Stats.merge_into ~dst:a b;
  check_int "sums add" 12 (Stats.get a "x");
  check_int "maxima take max" 10 (Stats.get a "m")

let test_stats_set_max () =
  let s = Stats.create "t" in
  Stats.set_max s "peak" 5;
  Stats.set_max s "peak" 3;
  check_int "keeps max" 5 (Stats.get s "peak");
  Stats.set_max s "peak" 9;
  check_int "raises max" 9 (Stats.get s "peak")

let test_stats_reset () =
  let s = Stats.create "t" in
  Stats.add s "x" 3;
  Stats.reset s;
  check_int "cleared" 0 (Stats.get s "x")

let test_stats_interned_counter () =
  let s = Stats.create "t" in
  let c = Stats.counter s "hot" in
  (* an interned-but-never-bumped counter must not show up in reports *)
  check_bool "untouched cell invisible" true
    (List.assoc_opt "hot" (Stats.counters s) = None);
  check_int "string get on untouched" 0 (Stats.get s "hot");
  Stats.Counter.incr c;
  Stats.Counter.add c 4;
  check_int "visible via string get" 5 (Stats.get s "hot");
  check_int "Counter.get" 5 (Stats.Counter.get c);
  check_bool "touched cell listed" true
    (List.assoc_opt "hot" (Stats.counters s) = Some 5);
  Stats.incr s "hot";
  check_int "string incr hits the same cell" 6 (Stats.Counter.get c);
  Stats.reset s;
  check_int "reset zeroes in place" 0 (Stats.Counter.get c);
  Stats.Counter.incr c;
  check_int "interned ref survives reset" 1 (Stats.get s "hot")

let test_stats_untouched_not_merged () =
  let a = Stats.create "a" and b = Stats.create "b" in
  let _quiet = Stats.counter b "quiet" in
  Stats.add b "loud" 2;
  Stats.merge_into ~dst:a b;
  check_bool "untouched counter not merged" true
    (List.assoc_opt "quiet" (Stats.counters a) = None);
  check_int "touched counter merged" 2 (Stats.get a "loud")

(* ---------------- Tablefmt ---------------- *)

let test_tablefmt_render () =
  let t =
    Tablefmt.create ~title:"demo"
      ~columns:[ ("name", Tablefmt.Left); ("value", Tablefmt.Right) ]
  in
  Tablefmt.add_row t [ "alpha"; "1" ];
  Tablefmt.add_separator t;
  Tablefmt.add_row t [ "beta"; "22" ];
  let out = Tablefmt.render t in
  List.iter
    (fun needle ->
      check_bool (Printf.sprintf "contains %S" needle) true (contains out needle))
    [ "demo"; "alpha"; "beta"; "22" ]

let test_tablefmt_arity () =
  let t =
    Tablefmt.create ~title:"x"
      ~columns:[ ("a", Tablefmt.Left); ("b", Tablefmt.Left) ]
  in
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Tablefmt.add_row: cell count mismatch") (fun () ->
      Tablefmt.add_row t [ "only-one" ])

(* ---------------- Debug ---------------- *)

(* A guarded trace site shaped like the protocol ones: a formatted message
   with an eagerly built string argument. *)
let trace_site ~key i =
  if Debug.on ~key then
    Debug.log ~key "t=%d client=%s pending=%b" i (Printf.sprintf "R%d" i)
      (i land 1 = 0)

let test_debug_guard_allocates_nothing () =
  (* a key other than the requested block, so this holds whether
     TT_DEBUG_BLOCK is unset or names some other block *)
  let key = match Debug.target with Some k -> k + 1 | None -> 0 in
  check_bool "site is off" false (Debug.on ~key);
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    trace_site ~key i
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words over 10k calls" 0. words

(* ---------------- Dense ---------------- *)

(* Against a map model: every accepted key reads back its latest value
   through any number of window growths, in both directions; a refused key
   reads [absent]; keys within a few hundred of each other are never
   refused. *)
let prop_dense_matches_model =
  let key =
    QCheck.Gen.(
      frequency
        [ (9, int_range (-300) 300);
          (1, map (fun d -> (1 lsl 20) + d) (int_range 0 3)) ])
  in
  QCheck.Test.make ~name:"dense index agrees with a map model" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 0 120) (pair key small_nat)))
    (fun ops ->
      let base = 1_000_000 in
      let d = Tt_util.Dense.create ~absent:(-1) in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun (k, v) ->
          let k = base + k in
          let far k = k > base + 300 in
          let far_held = Hashtbl.fold (fun k _ acc -> acc || far k) model false in
          let held = Tt_util.Dense.set d k v in
          if held then Hashtbl.replace model k v;
          (held || far k || far_held)
          && Tt_util.Dense.get d k = (if held then v else -1)
          && Hashtbl.fold
               (fun k v ok -> ok && Tt_util.Dense.get d k = v)
               model true)
        ops)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int covers range" `Quick test_prng_int_covers_range;
          Alcotest.test_case "int_in bounds" `Quick test_prng_int_in;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "chance extremes" `Quick test_prng_chance_extremes;
          Alcotest.test_case "shuffle permutes" `Quick
            test_prng_shuffle_is_permutation;
          Alcotest.test_case "split independence" `Quick
            test_prng_split_independent;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "golden streams" `Quick test_prng_golden;
          Alcotest.test_case "draws allocate nothing" `Quick
            test_prng_draws_allocate_nothing;
          qc prop_prng_nonnegative;
        ] );
      ( "heap",
        [
          Alcotest.test_case "basic order" `Quick test_heap_basic_order;
          Alcotest.test_case "pop empty" `Quick test_heap_pop_empty;
          Alcotest.test_case "capacity" `Quick test_heap_capacity;
        ] );
      ( "intheap",
        [
          Alcotest.test_case "basic" `Quick test_intheap_basic;
          qc prop_intheap_sorts;
          qc prop_intheap_interleaved;
          qc prop_intheap_slab_reuse;
          Alcotest.test_case "growth with every slot live" `Quick
            test_intheap_growth_full;
          Alcotest.test_case "popped and cleared payloads collectable" `Quick
            test_intheap_releases_payloads;
        ] );
      ( "inttbl",
        [
          Alcotest.test_case "hash equals Hashtbl.hash" `Quick
            test_inttbl_hash_edges;
          Alcotest.test_case "find raises Not_found" `Quick
            test_inttbl_find_raises;
          qc prop_inttbl_matches_hashtbl;
        ] );
      ("dense", [ qc prop_dense_matches_model ]);
      ( "vec",
        [
          Alcotest.test_case "basic" `Quick test_vec_basic;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "conversions" `Quick test_vec_conversions;
          Alcotest.test_case "truncate" `Quick test_vec_truncate;
          Alcotest.test_case "reset reuses storage" `Quick
            test_vec_reset_reuses_storage;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "range check" `Quick test_bitset_range_check;
          Alcotest.test_case "copy/equal" `Quick test_bitset_copy_equal;
          qc prop_bitset_model;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counters" `Quick test_stats_counters;
          Alcotest.test_case "observe/mean" `Quick test_stats_observe_mean;
          Alcotest.test_case "merge" `Quick test_stats_merge;
          Alcotest.test_case "set_max" `Quick test_stats_set_max;
          Alcotest.test_case "reset" `Quick test_stats_reset;
          Alcotest.test_case "interned counter" `Quick
            test_stats_interned_counter;
          Alcotest.test_case "untouched not merged" `Quick
            test_stats_untouched_not_merged;
        ] );
      ( "tablefmt",
        [
          Alcotest.test_case "render" `Quick test_tablefmt_render;
          Alcotest.test_case "arity" `Quick test_tablefmt_arity;
        ] );
      ( "debug",
        [
          Alcotest.test_case "guarded trace site allocates nothing" `Quick
            test_debug_guard_allocates_nothing;
        ] );
    ]
