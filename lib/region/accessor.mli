(** Privilege-checked views of physical instances.

    Task kernels never touch {!Physical} instances directly: they receive
    accessors that enforce the task's declared privileges — Regent's
    strictness property (paper §2.1), which is what lets control replication
    ignore task bodies entirely. An access outside the declared privileges
    raises {!Privilege_violation} (and tests assert this fires). Accessors
    also restrict the view to the task argument's index space, so a kernel
    cannot reach elements of the parent region outside its subregion.

    Kernels use {e run windows}: they fetch a field's storage column once
    ({!read_column}, {!write_column}, {!reduce_column} check the privilege
    there), prove a run of consecutive ids is in the view once
    ({!run_base} returns the storage index of the run's first id), and
    then index the column directly at [base + (id - lo)]. Irregular
    gathers look single ids up with {!index}. The per-element
    {!get}/{!set}/{!reduce} re-check both on every call; they remain the
    reference path. *)

exception Privilege_violation of string

type t

val make : Physical.t -> space:Index_space.t -> Privilege.t list -> t
(** A view of [inst] restricted to [space] under the given privileges.
    [space] must be a subset of the instance's index space. *)

val space : t -> Index_space.t
val privileges : t -> Privilege.t list

val get : t -> Field.t -> int -> float
(** Requires [Read] or [Read_write] on the field. *)

val set : t -> Field.t -> int -> float -> unit
(** Requires [Read_write] on the field. *)

val reduce : t -> Field.t -> int -> float -> unit
(** Folds the value with the declared operator; requires [Reduce _] on the
    field. *)

val mem : t -> int -> bool
(** Whether a global identifier is in the accessor's view. O(1) when the
    view covers the whole instance (the executor's per-color instances);
    falls back to the index-space membership test for strict subviews. *)

(** {2 Run windows} *)

val read_column : t -> Field.t -> float array
(** The storage column of a field declared [Read] or [Read_write]; raises
    {!Privilege_violation} otherwise. Index it only at storage indices
    obtained from {!run_base} or {!index}. *)

val write_column : t -> Field.t -> float array
(** Like {!read_column}; requires [Read_write]. *)

val reduce_column : t -> op:Privilege.redop -> Field.t -> float array
(** Like {!read_column} for a kernel that folds into the field with [op]:
    requires a [Reduce op] declaration with the same operator, or
    [Read_write]. *)

val run_base : t -> int -> int -> int
(** [run_base t lo hi] is the storage index of [lo] after proving that
    every id in [lo..hi] is in the view and stored consecutively, so
    [id] lives at [run_base t lo hi + (id - lo)]. Raises
    {!Privilege_violation} otherwise, and [Invalid_argument] when
    [hi < lo]. O(1) for full views (two addressing lookups); strict
    subviews add one {!Index_space.mem_run}. Never allocates. *)

val run_base_opt : t -> int -> int -> int
(** Like {!run_base} but returns [-1] instead of raising. *)

val index : t -> int -> int
(** Storage index of an id in the view, or [-1] when it is outside:
    [run_base_opt t id id]. *)

val iter : t -> (int -> unit) -> unit
(** Iterate the accessor's index space (global identifiers). *)

val iter_runs : t -> (int -> int -> unit) -> unit
(** [iter_runs t k] calls [k lo hi] per maximal run of consecutive global
    identifiers in the view, ascending — the bulk counterpart of {!iter}. *)

val cardinal : t -> int
