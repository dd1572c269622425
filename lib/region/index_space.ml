open Geometry

type universe = Structured of Rect.t | Unstructured of int

(* Structured spaces hold a pairwise-disjoint rectangle decomposition;
   unstructured spaces hold the sorted identifier set. *)
type t =
  | S of { u : Rect.t; rects : Rect.t list }
  | U of { n : int; elts : Sorted_iset.t }

let universe = function
  | S { u; _ } -> Structured u
  | U { n; _ } -> Unstructured n

(* [rect_diff r s] is r \ s as a list of disjoint rectangles, carved one
   axis-aligned slab at a time. *)
let rect_diff (r : Rect.t) (s : Rect.t) : Rect.t list =
  match Rect.intersect r s with
  | None -> [ r ]
  | Some _ ->
      let d = Rect.dim r in
      let pieces = ref [] in
      let cur_lo = ref r.Rect.lo and cur_hi = ref r.Rect.hi in
      for i = 0 to d - 1 do
        if !cur_lo.(i) < s.Rect.lo.(i) then begin
          let hi = Array.copy !cur_hi in
          hi.(i) <- s.Rect.lo.(i) - 1;
          pieces := Rect.make !cur_lo hi :: !pieces;
          let lo = Array.copy !cur_lo in
          lo.(i) <- s.Rect.lo.(i);
          cur_lo := lo
        end;
        if !cur_hi.(i) > s.Rect.hi.(i) then begin
          let lo = Array.copy !cur_lo in
          lo.(i) <- s.Rect.hi.(i) + 1;
          pieces := Rect.make lo !cur_hi :: !pieces;
          let hi = Array.copy !cur_hi in
          hi.(i) <- s.Rect.hi.(i);
          cur_hi := hi
        end
      done;
      !pieces

let rects_diff ra rb =
  List.concat_map
    (fun a -> List.fold_left (fun acc b -> List.concat_map (fun p -> rect_diff p b) acc) [ a ] rb)
    ra

let rect_diff_list r acc =
  List.fold_left (fun ps b -> List.concat_map (fun p -> rect_diff p b) ps) [ r ] acc

(* Normalise an arbitrary rectangle list into a disjoint one. *)
let disjointify rl =
  List.fold_left (fun acc r -> acc @ rect_diff_list r acc) [] rl

let of_rect r = S { u = r; rects = [ r ] }

let of_rects ~universe rl =
  List.iter
    (fun r ->
      if not (Rect.contains_rect universe r) then
        invalid_arg
          (Printf.sprintf "Index_space.of_rects: %s outside universe %s"
             (Rect.to_string r) (Rect.to_string universe)))
    rl;
  S { u = universe; rects = disjointify rl }

let of_range n =
  if n < 0 then invalid_arg "Index_space.of_range";
  U { n; elts = Sorted_iset.range 0 (n - 1) }

let of_iset ~universe_size elts =
  if (not (Sorted_iset.is_empty elts))
     && (Sorted_iset.min_elt elts < 0
        || Sorted_iset.max_elt elts >= universe_size)
  then invalid_arg "Index_space.of_iset: element outside universe";
  U { n = universe_size; elts }

let empty_like = function
  | S { u; _ } -> S { u; rects = [] }
  | U { n; _ } -> U { n; elts = Sorted_iset.empty }

let full = function
  | S { u; _ } -> S { u; rects = [ u ] }
  | U { n; _ } -> U { n; elts = Sorted_iset.range 0 (n - 1) }

let same_universe a b =
  match (a, b) with
  | S { u = ua; _ }, S { u = ub; _ } -> Rect.equal ua ub
  | U { n = na; _ }, U { n = nb; _ } -> na = nb
  | _ -> false

let check_same a b =
  if not (same_universe a b) then
    invalid_arg "Index_space: universe mismatch"

let cardinal = function
  | S { rects; _ } -> List.fold_left (fun n r -> n + Rect.volume r) 0 rects
  | U { elts; _ } -> Sorted_iset.cardinal elts

let is_empty t = cardinal t = 0

(* Structured membership without materialising the point: coordinates
   are peeled off the rank one axis at a time, last (fastest) axis
   first. [contains_rank u r i rest] checks axes [0..i] of the point
   whose remaining rank is [rest]. *)
let rec contains_rank (u : Rect.t) (r : Rect.t) i rest =
  i < 0
  ||
  let e = u.Rect.hi.(i) - u.Rect.lo.(i) + 1 in
  let c = u.Rect.lo.(i) + (rest mod e) in
  c >= r.Rect.lo.(i) && c <= r.Rect.hi.(i)
  && contains_rank u r (i - 1) (rest / e)

(* The last id of the row of the rectangle in [rects] holding [id] (rows
   run along the last axis), or [-1] when no rectangle holds it. *)
let rec row_end (u : Rect.t) id = function
  | [] -> -1
  | (r : Rect.t) :: rest ->
      let d = Rect.dim u - 1 in
      if contains_rank u r d id then
        let e = u.Rect.hi.(d) - u.Rect.lo.(d) + 1 in
        id + r.Rect.hi.(d) - (u.Rect.lo.(d) + (id mod e))
      else row_end u id rest

(* Whether [id..hi] is covered, one rectangle lookup per row it crosses. *)
let rec rows_in u rects id hi =
  id > hi
  ||
  let e = row_end u id rects in
  e >= 0 && rows_in u rects (e + 1) hi

let mem t id =
  match t with
  | S { u; rects } -> id >= 0 && id < Rect.volume u && row_end u id rects >= 0
  | U { elts; _ } -> Sorted_iset.mem elts id

let mem_run t lo hi =
  match t with
  | S { u; rects } ->
      lo > hi || (lo >= 0 && hi < Rect.volume u && rows_in u rects lo hi)
  | U { elts; _ } ->
      lo > hi
      ||
      (* Sorted and duplicate-free: [lo..hi] is in the set iff [hi] sits
         exactly [hi - lo] places after [lo]. *)
      let i = Sorted_iset.index_of_opt elts lo in
      i >= 0
      &&
      let j = i + hi - lo in
      j < Sorted_iset.cardinal elts && (Sorted_iset.to_array elts).(j) = hi

let inter a b =
  check_same a b;
  match (a, b) with
  | S { u; rects = ra }, S { rects = rb; _ } ->
      let rs =
        List.concat_map
          (fun x -> List.filter_map (fun y -> Rect.intersect x y) rb)
          ra
      in
      S { u; rects = rs }
  | U { n; elts = ea }, U { elts = eb; _ } ->
      U { n; elts = Sorted_iset.inter ea eb }
  | _ -> assert false

let diff a b =
  check_same a b;
  match (a, b) with
  | S { u; rects = ra }, S { rects = rb; _ } ->
      S { u; rects = rects_diff ra rb }
  | U { n; elts = ea }, U { elts = eb; _ } ->
      U { n; elts = Sorted_iset.diff ea eb }
  | _ -> assert false

let union a b =
  check_same a b;
  match (a, b) with
  | S { u; rects = ra }, (S _ as b') -> (
      match diff b' a with
      | S { rects = extra; _ } -> S { u; rects = ra @ extra }
      | U _ -> assert false)
  | U { n; elts = ea }, U { elts = eb; _ } ->
      U { n; elts = Sorted_iset.union ea eb }
  | _ -> assert false

let disjoint a b =
  check_same a b;
  match (a, b) with
  | S { rects = ra; _ }, S { rects = rb; _ } ->
      not (List.exists (fun x -> List.exists (Rect.overlap x) rb) ra)
  | U { elts = ea; _ }, U { elts = eb; _ } -> Sorted_iset.disjoint ea eb
  | _ -> assert false

let subset a b = is_empty (diff a b)
let equal a b = cardinal a = cardinal b && subset a b

let rects = function
  | S { rects; _ } -> rects
  | U _ -> invalid_arg "Index_space.rects: unstructured space"

let bounds_interval t =
  match t with
  | U { elts; _ } ->
      if Sorted_iset.is_empty elts then None
      else Some (Interval.make (Sorted_iset.min_elt elts) (Sorted_iset.max_elt elts))
  | S { u; rects } -> (
      match rects with
      | [] -> None
      | r0 :: rest ->
          let lo = ref (Rect.linearize u r0.Rect.lo)
          and hi = ref (Rect.linearize u r0.Rect.hi) in
          List.iter
            (fun (r : Rect.t) ->
              lo := min !lo (Rect.linearize u r.Rect.lo);
              hi := max !hi (Rect.linearize u r.Rect.hi))
            rest;
          Some (Interval.make !lo !hi))

(* Runs of consecutive global identifiers. Structured spaces decompose
   into rows: with row-major linearization the last axis varies fastest,
   so each rectangle contributes one run per combination of its outer
   coordinates. Rows of a single rectangle come out in ascending id
   order already; multiple (disjoint) rectangles interleave in id space
   but never overlap, so a sort + adjacent-merge restores maximality. *)
let iter_id_runs k t =
  match t with
  | U { elts; _ } ->
      let a = Sorted_iset.to_array elts in
      let n = Array.length a in
      let i = ref 0 in
      while !i < n do
        let lo = a.(!i) in
        let j = ref !i in
        while !j + 1 < n && a.(!j + 1) = a.(!j) + 1 do
          incr j
        done;
        k lo a.(!j);
        i := !j + 1
      done
  | S { u; rects } ->
      let rows_of (r : Rect.t) emit =
        (* An odometer over the outer axes; the last axis is the row. *)
        let d = Rect.dim r in
        let len = Rect.extent r (d - 1) in
        let p = Array.copy r.Rect.lo in
        let more = ref true in
        while !more do
          emit (Rect.linearize u p) len;
          let i = ref (d - 2) in
          while !i >= 0 && p.(!i) = r.Rect.hi.(!i) do
            p.(!i) <- r.Rect.lo.(!i);
            decr i
          done;
          if !i < 0 then more := false else p.(!i) <- p.(!i) + 1
        done
      in
      let emit_merged =
        (* Fuse id-adjacent rows into maximal runs as they stream by. *)
        let pend_lo = ref 0 and pend_hi = ref (-1) in
        let push lo len =
          if !pend_hi + 1 = lo then pend_hi := lo + len - 1
          else begin
            if !pend_hi >= !pend_lo then k !pend_lo !pend_hi;
            pend_lo := lo;
            pend_hi := lo + len - 1
          end
        in
        let flush () = if !pend_hi >= !pend_lo then k !pend_lo !pend_hi in
        (push, flush)
      in
      let push, flush = emit_merged in
      (match rects with
      | [] -> ()
      | [ r ] -> rows_of r push
      | rs ->
          let acc = ref [] in
          List.iter (fun r -> rows_of r (fun lo len -> acc := (lo, len) :: !acc)) rs;
          let rows = List.sort (fun (a, _) (b, _) -> Int.compare a b) !acc in
          List.iter (fun (lo, len) -> push lo len) rows);
      flush ()

(* Structured ids stream row by row from the runs, already ascending. *)
let iter_ids f t =
  match t with
  | U { elts; _ } -> Sorted_iset.iter f elts
  | S _ ->
      iter_id_runs
        (fun lo hi ->
          for id = lo to hi do
            f id
          done)
        t

let fold_ids f init t =
  let acc = ref init in
  iter_ids (fun id -> acc := f !acc id) t;
  !acc

let ids = function
  | U { elts; _ } -> elts
  | S _ as t ->
      let out = Array.make (cardinal t) 0 in
      let w = ref 0 in
      iter_ids
        (fun id ->
          out.(!w) <- id;
          incr w)
        t;
      Sorted_iset.of_sorted_array_unchecked out

let id_runs t =
  match t with
  | U { elts; _ } -> Sorted_iset.runs elts
  | S _ ->
      let acc = ref [] in
      iter_id_runs (fun lo hi -> acc := Interval.make lo hi :: !acc) t;
      List.rev !acc

let bounding_rect = function
  | U _ -> invalid_arg "Index_space.bounding_rect: unstructured space"
  | S { rects = []; _ } -> None
  | S { rects = r0 :: rest; _ } ->
      Some (List.fold_left Rect.union_bbox r0 rest)

let is_structured = function S _ -> true | U _ -> false

let pp ppf = function
  | S { rects; _ } ->
      Format.fprintf ppf "@[<h>%a@]"
        (Format.pp_print_list ~pp_sep:Format.pp_print_space Rect.pp)
        rects
  | U { elts; _ } ->
      if Sorted_iset.cardinal elts > 16 then
        Format.fprintf ppf "{%d elements in [%d..%d]}"
          (Sorted_iset.cardinal elts) (Sorted_iset.min_elt elts)
          (Sorted_iset.max_elt elts)
      else Sorted_iset.pp ppf elts
