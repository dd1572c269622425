(** Index spaces: the sets of element indices regions are defined over.

    An index space lives in a {e universe} — either a structured
    (1–3 dimensional) rectangle of lattice points or an unstructured range of
    dense integer identifiers — and denotes a subset of that universe.
    Subregions produced by partitioning share their parent's universe, which
    gives every element a stable global identifier: the row-major rank within
    the universe rectangle for structured spaces, the identifier itself for
    unstructured ones. Physical instances and copies are keyed by these
    global identifiers. *)

open Geometry

type universe = Structured of Rect.t | Unstructured of int

type t

val universe : t -> universe

val of_rect : Rect.t -> t
(** The full structured space over universe [r]. *)

val of_rects : universe:Rect.t -> Rect.t list -> t
(** A structured subset given as rectangles (need not be disjoint; they are
    normalised). Raises [Invalid_argument] if a rectangle is outside the
    universe. *)

val of_range : int -> t
(** [of_range n] is the full unstructured space [{0..n-1}]. *)

val of_iset : universe_size:int -> Sorted_iset.t -> t

val empty_like : t -> t
(** The empty subset of the same universe. *)

val full : t -> t
(** The full space of [t]'s universe. *)

val same_universe : t -> t -> bool

val cardinal : t -> int
val is_empty : t -> bool
val mem : t -> int -> bool
(** Membership by global identifier. Never allocates. *)

val mem_run : t -> int -> int -> bool
(** [mem_run t lo hi] is whether every identifier in [lo..hi] is in [t]
    ([true] when [lo > hi]). Structured spaces do one rectangle lookup per
    row the run crosses; unstructured spaces one binary search. Never
    allocates. *)

val equal : t -> t -> bool
val disjoint : t -> t -> bool
val subset : t -> t -> bool

(** Set algebra. Raises [Invalid_argument] when universes differ. *)

val inter : t -> t -> t
val union : t -> t -> t
val diff : t -> t -> t

val iter_ids : (int -> unit) -> t -> unit
(** Iterate global identifiers in increasing order. *)

val fold_ids : ('a -> int -> 'a) -> 'a -> t -> 'a
val ids : t -> Sorted_iset.t
(** Materialise the global identifier set. *)

val rects : t -> Rect.t list
(** The disjoint rectangle decomposition of a structured space. Raises
    [Invalid_argument] on unstructured spaces. *)

val bounds_interval : t -> Interval.t option
(** Inclusive bounds of the global identifiers; [None] when empty. *)

val id_runs : t -> Interval.t list
(** Maximal runs of consecutive global identifiers, ascending. For
    unstructured spaces these are the element-set runs (the shallow
    intersection index of §3.3 is built from them); for structured spaces
    each rectangle contributes one run per row (last axis varies fastest
    under row-major linearization), merged across rectangles where
    id-adjacent. *)

val iter_id_runs : (int -> int -> unit) -> t -> unit
(** [iter_id_runs k t] calls [k lo hi] for each maximal run of consecutive
    global identifiers, ascending — same decomposition as {!id_runs}
    without materialising the list. Copy plans and bulk accessors are
    built from these runs. *)

val bounding_rect : t -> Rect.t option
(** Bounding rectangle of a structured space; [None] when empty. Raises
    [Invalid_argument] on unstructured spaces. *)

val is_structured : t -> bool

val pp : Format.formatter -> t -> unit
