(** Physical instances: actual storage for a region's data.

    Regent decouples region declaration from allocation (paper §2.1); an
    instance materialises one region's index space with one [float] per
    element per field. Control replication's data-replication stage (§3.1)
    turns the shared-memory picture — one instance per tree — into the
    distributed one, where every subregion has its own instance and copies
    keep them coherent. The copy operations here are the primitive those
    inserted copies compile to: they act on the {e intersection} of the two
    instances' index spaces. *)

type t

val create : ?init:float -> Region.t -> t
(** Storage for the region's index space and fields, filled with [init]
    (default [0.]). *)

val create_over : ?init:float -> Index_space.t -> Field.t list -> t

val ispace : t -> Index_space.t
val fields : t -> Field.t list

val cardinal : t -> int
(** Number of elements the instance stores. O(1). *)

val mem : t -> int -> bool
(** Whether the element with global identifier [id] is stored here.
    O(1) for contiguous and dense-span instances, O(log n) otherwise;
    never allocates. *)

val index_of : t -> int -> int
(** Storage index of a global identifier; the addressing mode (contiguous
    offset, dense id→index table, or binary search over the cached sorted
    id array) is fixed at creation, so no per-access allocation happens.
    Raises [Invalid_argument] when the element is not in the instance. *)

val index_of_opt : t -> int -> int
(** Like {!index_of} but returns [-1] instead of raising. *)

val column : t -> Field.t -> float array
(** The raw storage of one field, parallel to the sorted id array (element
    with storage index [k] lives at position [k]). Exposed for the bulk
    data plane ({!Accessor} run windows, copy plans); mutate only through
    an index obtained from {!index_of}. Raises [Invalid_argument] when [f] is
    not a field of the instance. *)

val get : t -> Field.t -> int -> float
(** [get inst f id] reads field [f] of the element with global identifier
    [id]. Raises [Invalid_argument] when [id] is not in the instance or [f]
    not a field of it. *)

val set : t -> Field.t -> int -> float -> unit

val update : t -> Field.t -> int -> (float -> float) -> unit

val fill : t -> Field.t -> float -> unit
val fill_all : t -> float -> unit

val copy_into : ?fields:Field.t list -> src:t -> dst:t -> unit -> unit
(** Copy the shared fields (or [?fields]) on the intersection of the two
    index spaces: for each element of [ispace src ∩ ispace dst],
    [dst.f <- src.f]. The R1 <- R2 assignment of paper §3.1. *)

val reduce_into :
  op:Privilege.redop -> ?fields:Field.t list -> src:t -> dst:t -> unit -> unit
(** Like {!copy_into} but folds with the reduction operator:
    [dst.f <- dst.f op src.f] (the reduction copies of paper §4.3). *)

val copy_volume : src:t -> dst:t -> int
(** Number of elements {!copy_into} would touch. *)

val equal_on : t -> t -> Index_space.t -> Field.t list -> bool
(** Exact equality of the two instances on the given elements and fields
    (test support). *)

val to_alist : t -> Field.t -> (int * float) list
(** All (id, value) pairs of one field, id-ascending (test support). *)
