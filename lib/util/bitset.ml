type t = { words : int array; capacity : int }

let bits_per_word = 62 (* stay clear of the OCaml int tag bit *)

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { words = Array.make ((n + bits_per_word - 1) / bits_per_word) 0; capacity = n }

let capacity t = t.capacity

let check t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitset: element out of range"

let mem t i =
  check t i;
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))

let remove t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod bits_per_word))

(* The walks below visit whole words and, inside a word, only its set
   bits: no per-index bounds check or divide.  [add] never sets a bit at
   or past [capacity], so every set bit is a member. *)

(* Index of the highest set bit of [x <> 0]. *)
let highest x =
  let n = ref 0 and x = ref x in
  if !x lsr 32 <> 0 then begin n := 32; x := !x lsr 32 end;
  if !x lsr 16 <> 0 then begin n := !n + 16; x := !x lsr 16 end;
  if !x lsr 8 <> 0 then begin n := !n + 8; x := !x lsr 8 end;
  if !x lsr 4 <> 0 then begin n := !n + 4; x := !x lsr 4 end;
  if !x lsr 2 <> 0 then begin n := !n + 2; x := !x lsr 2 end;
  if !x lsr 1 <> 0 then n := !n + 1;
  !n

(* [x land -x] keeps only the lowest set bit *)
let lowest x = highest (x land -x)

let popcount x =
  let x = ref x and n = ref 0 in
  while !x <> 0 do
    x := !x land (!x - 1);
    incr n
  done;
  !n

let cardinal t =
  let n = ref 0 in
  for k = 0 to Array.length t.words - 1 do
    n := !n + popcount t.words.(k)
  done;
  !n

let is_empty t =
  let k = ref 0 and last = Array.length t.words in
  while !k < last && t.words.(!k) = 0 do incr k done;
  !k = last

let exists_except t i =
  (* the word holding [i] ignores that bit; [i] need not be in range *)
  let skip = if i >= 0 then i / bits_per_word else -1 in
  let k = ref 0 and last = Array.length t.words and found = ref false in
  while (not !found) && !k < last do
    let w = t.words.(!k) in
    let w = if !k = skip then w land lnot (1 lsl (i mod bits_per_word)) else w in
    if w <> 0 then found := true;
    incr k
  done;
  !found

let iter f t =
  for k = 0 to Array.length t.words - 1 do
    let w = ref t.words.(k) and base = k * bits_per_word in
    while !w <> 0 do
      f (base + lowest !w);
      w := !w land (!w - 1)
    done
  done

let to_list t =
  let acc = ref [] in
  for k = Array.length t.words - 1 downto 0 do
    let w = ref t.words.(k) and base = k * bits_per_word in
    while !w <> 0 do
      let b = highest !w in
      acc := (base + b) :: !acc;
      w := !w lxor (1 lsl b)
    done
  done;
  !acc

let clear t = Array.fill t.words 0 (Array.length t.words) 0

let copy t = { words = Array.copy t.words; capacity = t.capacity }

let equal a b = a.capacity = b.capacity && a.words = b.words
