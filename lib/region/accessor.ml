exception Privilege_violation of string

type t = {
  inst : Physical.t;
  space : Index_space.t;
  privs : Privilege.t list;
  full : bool; (* the view covers the whole instance *)
  modes : Privilege.mode option array; (* indexed by Field.id *)
}

let make inst ~space privs =
  if not (Index_space.subset space (Physical.ispace inst)) then
    invalid_arg "Accessor.make: space not contained in instance";
  (* Subset + equal cardinality means the view is the whole instance, so
     membership checks can use the instance's O(1) addressing. *)
  let full = Index_space.cardinal space = Physical.cardinal inst in
  let width =
    List.fold_left
      (fun w (p : Privilege.t) -> max w (Field.id p.Privilege.field + 1))
      0 privs
  in
  let modes = Array.make width None in
  (* First declaration of a field wins, matching the old list scan. *)
  List.iter
    (fun (p : Privilege.t) ->
      let k = Field.id p.Privilege.field in
      if modes.(k) = None then modes.(k) <- Some p.Privilege.mode)
    (List.rev privs);
  { inst; space; privs; full; modes }

let space t = t.space
let privileges t = t.privs

let violation fmt = Format.kasprintf (fun s -> raise (Privilege_violation s)) fmt

let mode_of t f =
  let k = Field.id f in
  if k < Array.length t.modes then t.modes.(k) else None

let mem t id =
  if t.full then Physical.mem t.inst id else Index_space.mem t.space id

let check_elt t id =
  if not (mem t id) then
    violation "access to element %d outside the argument's index space" id

let get t f id =
  check_elt t id;
  match mode_of t f with
  | Some (Privilege.Read | Privilege.Read_write) -> Physical.get t.inst f id
  | Some (Privilege.Reduce _) ->
      violation "read of field %s under a reduce-only privilege" (Field.name f)
  | None -> violation "read of undeclared field %s" (Field.name f)

let set t f id v =
  check_elt t id;
  match mode_of t f with
  | Some Privilege.Read_write -> Physical.set t.inst f id v
  | Some Privilege.Read ->
      violation "write to field %s under a read-only privilege" (Field.name f)
  | Some (Privilege.Reduce _) ->
      violation "write to field %s under a reduce-only privilege" (Field.name f)
  | None -> violation "write to undeclared field %s" (Field.name f)

let reduce t f id v =
  match mode_of t f with
  | Some (Privilege.Reduce op) ->
      check_elt t id;
      Physical.update t.inst f id (fun old -> Privilege.apply_redop op old v)
  | Some Privilege.Read_write ->
      violation
        "reduce to field %s under reads-writes: use reduce_column to name \
         the operator"
        (Field.name f)
  | Some Privilege.Read ->
      violation "reduce to field %s under a read-only privilege" (Field.name f)
  | None -> violation "reduce to undeclared field %s" (Field.name f)

(* Run windows: the privilege is checked once per column fetch and view
   containment once per run of ids, so a kernel's inner loop is a bare
   array access at [base + i]. *)

let read_column t f =
  match mode_of t f with
  | Some (Privilege.Read | Privilege.Read_write) -> Physical.column t.inst f
  | Some (Privilege.Reduce _) ->
      violation "read of field %s under a reduce-only privilege" (Field.name f)
  | None -> violation "read of undeclared field %s" (Field.name f)

let write_column t f =
  match mode_of t f with
  | Some Privilege.Read_write -> Physical.column t.inst f
  | Some Privilege.Read ->
      violation "write to field %s under a read-only privilege" (Field.name f)
  | Some (Privilege.Reduce _) ->
      violation "write to field %s under a reduce-only privilege" (Field.name f)
  | None -> violation "write to undeclared field %s" (Field.name f)

let reduce_column t ~op f =
  match mode_of t f with
  | Some (Privilege.Reduce op') when op' = op -> Physical.column t.inst f
  | Some Privilege.Read_write -> Physical.column t.inst f
  | Some (Privilege.Reduce _) ->
      violation "reduce to field %s with a mismatched operator" (Field.name f)
  | Some Privilege.Read ->
      violation "reduce to field %s under a read-only privilege" (Field.name f)
  | None -> violation "reduce to undeclared field %s" (Field.name f)

(* Storage is id-sorted, so for a full view [lo..hi] is stored (and
   consecutively) iff both ends are and their storage indices lie
   [hi - lo] apart. A strict subview proves the run is in the view first;
   the instance holds the view, so the run is then stored consecutively. *)
let run_base_opt t lo hi =
  if hi < lo then invalid_arg "Accessor.run_base: empty run";
  let k0 = Physical.index_of_opt t.inst lo in
  if k0 < 0 then -1
  else if t.full then
    if lo = hi || Physical.index_of_opt t.inst hi - k0 = hi - lo then k0
    else -1
  else if Index_space.mem_run t.space lo hi then k0
  else -1

let run_base t lo hi =
  let k = run_base_opt t lo hi in
  if k < 0 then
    violation "access to elements %d..%d outside the argument's index space"
      lo hi;
  k

let index t id =
  if t.full || Index_space.mem t.space id then Physical.index_of_opt t.inst id
  else -1

let iter t f = Index_space.iter_ids f t.space
let iter_runs t k = Index_space.iter_id_runs k t.space
let cardinal t = Index_space.cardinal t.space
