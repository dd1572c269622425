(** Immutable sets of non-negative integers as sorted, duplicate-free arrays.

    These are the element sets of unstructured index spaces: element
    identifiers are dense integers, and partition/copy machinery needs fast
    ordered iteration, set algebra, and binary-search membership. *)

type t

val empty : t
val of_list : int list -> t
val of_array : int array -> t
(** Both constructors sort and deduplicate. *)

val of_sorted_array_unchecked : int array -> t
(** The caller asserts the array is strictly increasing. O(1); the array is
    not copied, so the caller must not mutate it afterwards. *)

val range : int -> int -> t
(** [range lo hi] is [{lo, .., hi}]; empty when [lo > hi]. *)

val to_array : t -> int array
(** The underlying array; must not be mutated. *)

val cardinal : t -> int
val is_empty : t -> bool
val mem : t -> int -> bool

val index_of_opt : t -> int -> int
(** [index_of_opt s x] is the rank of [x] in [s] (its position in
    {!to_array}), or [-1] when [x] is absent. O(log n); never allocates. *)

val min_elt : t -> int
val max_elt : t -> int
(** [min_elt]/[max_elt] raise [Not_found] on the empty set. *)

val equal : t -> t -> bool
val subset : t -> t -> bool

val union : t -> t -> t
val union_many : t array -> t
(** Union of many sets in one concat-sort-dedup pass — O(total log total),
    unlike a left fold of {!union}, which is quadratic in the result. *)

val inter : t -> t -> t
val diff : t -> t -> t

val disjoint : t -> t -> bool

val iter : (int -> unit) -> t -> unit
val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
val nth : t -> int -> int
(** [nth s k] is the k-th smallest element. *)

val runs : t -> Interval.t list
(** Decomposition into maximal runs of consecutive integers, ascending. *)

val choose_block : t -> pieces:int -> index:int -> t
(** Contiguous nearly-equal blocking of the sorted elements, as used by block
    partitions of unstructured spaces. *)

val pp : Format.formatter -> t -> unit
