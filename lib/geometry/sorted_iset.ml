type t = int array

let empty = [||]

let dedup_sorted (a : int array) =
  let n = Array.length a in
  if n = 0 then a
  else begin
    let w = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> a.(!w - 1) then begin
        a.(!w) <- a.(i);
        incr w
      end
    done;
    if !w = n then a else Array.sub a 0 !w
  end

let of_array a =
  let a = Array.copy a in
  Array.sort Int.compare a;
  dedup_sorted a

let of_list l = of_array (Array.of_list l)

let of_sorted_array_unchecked a = a

let range lo hi =
  if lo > hi then empty else Array.init (hi - lo + 1) (fun i -> lo + i)

let to_array s = s
let cardinal = Array.length
let is_empty s = Array.length s = 0

let index_of_opt (s : t) (x : int) =
  let lo = ref 0 and hi = ref (Array.length s - 1) and res = ref (-1) in
  while !res < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if s.(mid) = x then res := mid
    else if s.(mid) < x then lo := mid + 1
    else hi := mid - 1
  done;
  !res

let mem s x = index_of_opt s x >= 0

let min_elt s = if is_empty s then raise Not_found else s.(0)
let max_elt s = if is_empty s then raise Not_found else s.(cardinal s - 1)

let equal (a : t) (b : t) = a = b

let union a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (na + nb) 0 in
  let i = ref 0 and j = ref 0 and w = ref 0 in
  while !i < na && !j < nb do
    let x = a.(!i) and y = b.(!j) in
    let v = if x <= y then x else y in
    if x <= y then incr i;
    if y <= x then incr j;
    out.(!w) <- v;
    incr w
  done;
  while !i < na do
    out.(!w) <- a.(!i);
    incr i;
    incr w
  done;
  while !j < nb do
    out.(!w) <- b.(!j);
    incr j;
    incr w
  done;
  if !w = na + nb then out else Array.sub out 0 !w

let union_many sets =
  let total = Array.fold_left (fun n s -> n + Array.length s) 0 sets in
  let out = Array.make total 0 in
  let w = ref 0 in
  Array.iter
    (fun s ->
      Array.blit s 0 out !w (Array.length s);
      w := !w + Array.length s)
    sets;
  Array.sort Int.compare out;
  dedup_sorted out

let inter a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (min na nb) 0 in
  let i = ref 0 and j = ref 0 and w = ref 0 in
  while !i < na && !j < nb do
    let x = a.(!i) and y = b.(!j) in
    if x = y then begin
      out.(!w) <- x;
      incr w;
      incr i;
      incr j
    end
    else if x < y then incr i
    else incr j
  done;
  if !w = Array.length out then out else Array.sub out 0 !w

let diff a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make na 0 in
  let i = ref 0 and j = ref 0 and w = ref 0 in
  while !i < na do
    let x = a.(!i) in
    while !j < nb && b.(!j) < x do
      incr j
    done;
    if !j >= nb || b.(!j) <> x then begin
      out.(!w) <- x;
      incr w
    end;
    incr i
  done;
  if !w = na then out else Array.sub out 0 !w

let disjoint (a : t) (b : t) =
  let na = Array.length a and nb = Array.length b in
  let i = ref 0 and j = ref 0 and d = ref true in
  while !d && !i < na && !j < nb do
    let x = a.(!i) and y = b.(!j) in
    if x = y then d := false else if x < y then incr i else incr j
  done;
  !d

let subset a b =
  cardinal a <= cardinal b && cardinal (inter a b) = cardinal a

let iter f s = Array.iter f s
let fold f init s = Array.fold_left f init s

let nth s k =
  if k < 0 || k >= cardinal s then invalid_arg "Sorted_iset.nth";
  s.(k)

let runs s =
  let n = Array.length s in
  if n = 0 then []
  else begin
    let acc = ref [] in
    let start = ref s.(0) and prev = ref s.(0) in
    for i = 1 to n - 1 do
      if s.(i) <> !prev + 1 then begin
        acc := Interval.make !start !prev :: !acc;
        start := s.(i)
      end;
      prev := s.(i)
    done;
    acc := Interval.make !start !prev :: !acc;
    List.rev !acc
  end

let choose_block s ~pieces ~index =
  let n = cardinal s in
  match Rect.block_1d ~lo:0 ~hi:(n - 1) ~pieces ~index with
  | None -> empty
  | Some (lo, hi) -> Array.sub s lo (hi - lo + 1)

let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (Array.to_list s)
