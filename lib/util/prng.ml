(* The 64-bit state lives unboxed in 8 bytes.  A [mutable state : int64]
   field would box a fresh Int64 on every draw and store it into an old
   record (one allocation plus one remembered-set entry per draw); the
   unchecked bytes primitives keep every draw allocation-free.  The byte
   order is whatever the host's is: the state is only ever read back by
   the same primitives. *)
type t = Bytes.t

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  set64u t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)

let copy t = Bytes.copy t

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] step t =
  let s = Int64.add (get64u t 0) golden_gamma in
  set64u t 0 s;
  mix s

let next_int64 t = step t

let split t = of_state (step t)

let int t bound =
  assert (bound > 0);
  (* keep 62 bits so the value fits OCaml's 63-bit native int *)
  let r = Int64.to_int (Int64.shift_right_logical (step t) 2) in
  r mod bound

let int_in t ~lo ~hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 high-quality bits, as in the standard double construction. *)
  let bits = Int64.shift_right_logical (step t) 11 in
  Int64.to_float bits /. 9007199254740992.0 *. bound

let bool t = Int64.logand (step t) 1L = 1L

let chance t p = float t 1.0 < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
