type t = { size : int; words : int array }

let bits_per_word = Sys.int_size

let create size =
  if size < 0 then invalid_arg "Bitset.create: negative size";
  { size; words = Array.make ((size + bits_per_word - 1) / bits_per_word) 0 }

let length t = t.size

let check t i name =
  if i < 0 || i >= t.size then invalid_arg (name ^ ": index out of range")

let set t i =
  check t i "Bitset.set";
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

let clear t i =
  check t i "Bitset.clear";
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl b)

let mem t i =
  check t i "Bitset.mem";
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) land (1 lsl b) <> 0

let copy t = { size = t.size; words = Array.copy t.words }
let reset t = Array.fill t.words 0 (Array.length t.words) 0

let check_sizes a b name =
  if a.size <> b.size then invalid_arg (name ^ ": size mismatch")

let union a b =
  check_sizes a b "Bitset.union";
  { size = a.size; words = Array.mapi (fun i w -> w lor b.words.(i)) a.words }

let inter a b =
  check_sizes a b "Bitset.inter";
  { size = a.size; words = Array.mapi (fun i w -> w land b.words.(i)) a.words }

let diff a b =
  check_sizes a b "Bitset.diff";
  {
    size = a.size;
    words = Array.mapi (fun i w -> w land lnot b.words.(i)) a.words;
  }

let union_in_place a b =
  check_sizes a b "Bitset.union_in_place";
  Array.iteri (fun i w -> a.words.(i) <- a.words.(i) lor w) b.words

let popcount_word w =
  let rec loop w acc = if w = 0 then acc else loop (w land (w - 1)) (acc + 1) in
  loop w 0

let cardinal t = Array.fold_left (fun acc w -> acc + popcount_word w) 0 t.words

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let disjoint a b =
  check_sizes a b "Bitset.disjoint";
  let ok = ref true in
  Array.iteri (fun i w -> if w land b.words.(i) <> 0 then ok := false) a.words;
  !ok

let iter f t =
  for i = 0 to t.size - 1 do
    if mem t i then f i
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list size l =
  let t = create size in
  List.iter (fun i -> set t i) l;
  t
