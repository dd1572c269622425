open Geometry

(* Addressing mode, fixed at creation. [Contiguous] when the ids are a
   dense range; [Dense] when the id span is close enough to the element
   count that a direct id->index table is cheap; [Search] (binary search
   over the cached sorted id array) otherwise. All three are chosen once
   in [create_over] — the per-access path allocates nothing. *)
type addressing =
  | Contiguous of { base : int }
  | Dense of { base : int; table : int array } (* table.(id - base) = idx | -1 *)
  | Search (* binary search over [ids] *)

type t = {
  ispace : Index_space.t;
  flds : Field.t list;
  ids : Sorted_iset.t; (* sorted global ids; data arrays are parallel *)
  n : int;
  addr : addressing;
  data : (int, float array) Hashtbl.t; (* field id -> values *)
}

let ispace t = t.ispace
let fields t = t.flds
let cardinal t = t.n

(* A dense table costs one word per id in the span; build it whenever the
   span is within a small factor of the element count, so sparse-but-
   clustered instances (ghost sets, halos) get O(1) addressing without
   blowing up memory on pathologically wide spans. *)
let dense_span_budget n = (4 * n) + 64

let create_over ?(init = 0.) ispace flds =
  let ids = Index_space.ids ispace in
  let n = Sorted_iset.cardinal ids in
  let addr =
    if n = 0 then Contiguous { base = 0 }
    else
      let lo = Sorted_iset.min_elt ids and hi = Sorted_iset.max_elt ids in
      let span = hi - lo + 1 in
      if span = n then Contiguous { base = lo }
      else if span <= dense_span_budget n then begin
        let table = Array.make span (-1) in
        let k = ref 0 in
        Sorted_iset.iter
          (fun id ->
            table.(id - lo) <- !k;
            incr k)
          ids;
        Dense { base = lo; table }
      end
      else Search
  in
  let data = Hashtbl.create (List.length flds) in
  List.iter
    (fun f -> Hashtbl.replace data (Field.id f) (Array.make n init))
    flds;
  { ispace; flds; ids; n; addr; data }

let create ?init (r : Region.t) =
  create_over ?init r.Region.ispace r.Region.fields

(* [index_of_opt t id] is the index of [id] in the instance's storage, or
   [-1] when absent. O(1) for [Contiguous]/[Dense], O(log n) for [Search];
   never allocates. *)
let index_of_opt t id =
  match t.addr with
  | Contiguous { base } ->
      let k = id - base in
      if k >= 0 && k < t.n then k else -1
  | Dense { base; table } ->
      let k = id - base in
      if k >= 0 && k < Array.length table then table.(k) else -1
  | Search -> Sorted_iset.index_of_opt t.ids id

let mem t id = index_of_opt t id >= 0

let index_of t id =
  let k = index_of_opt t id in
  if k < 0 then
    invalid_arg (Printf.sprintf "Physical: element %d not in instance" id);
  k

let column t f =
  match Hashtbl.find_opt t.data (Field.id f) with
  | Some a -> a
  | None ->
      invalid_arg
        (Printf.sprintf "Physical: no field %s in instance" (Field.name f))

let get t f id = (column t f).(index_of t id)
let set t f id v = (column t f).(index_of t id) <- v

let update t f id g =
  let a = column t f and k = index_of t id in
  a.(k) <- g a.(k)

let fill t f v = Array.fill (column t f) 0 t.n v
let fill_all t v = List.iter (fun f -> fill t f v) t.flds

let shared_fields ?fields src dst =
  match fields with
  | Some fl -> fl
  | None -> List.filter (fun f -> List.exists (Field.equal f) dst.flds) src.flds

let transfer ~f ?fields ~src ~dst () =
  let fl = shared_fields ?fields src dst in
  let common = Index_space.inter src.ispace dst.ispace in
  List.iter
    (fun fld ->
      let sc = column src fld and dc = column dst fld in
      Index_space.iter_ids
        (fun id ->
          let si = index_of src id and di = index_of dst id in
          dc.(di) <- f dc.(di) sc.(si))
        common)
    fl

let copy_into ?fields ~src ~dst () =
  transfer ~f:(fun _old v -> v) ?fields ~src ~dst ()

let reduce_into ~op ?fields ~src ~dst () =
  transfer ~f:(Privilege.apply_redop op) ?fields ~src ~dst ()

let copy_volume ~src ~dst =
  Index_space.cardinal (Index_space.inter src.ispace dst.ispace)

exception Unequal

let equal_on a b space fl =
  try
    List.iter
      (fun f ->
        Index_space.iter_ids
          (fun id -> if get a f id <> get b f id then raise_notrace Unequal)
          space)
      fl;
    true
  with Unequal -> false

let to_alist t f =
  List.rev
    (Sorted_iset.fold (fun acc id -> (id, get t f id) :: acc) [] t.ids)
