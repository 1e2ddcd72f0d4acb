(** Sparse matrices in compressed sparse column (CSC) format.

    CSC is the native format of the sparse factorizations; the stochastic
    Galerkin assembly builds its augmented operators here via {!kron}. *)

type t = private {
  nrows : int;
  ncols : int;
  colptr : int array; (* length ncols + 1 *)
  rowind : int array; (* row indices, sorted strictly increasing per column *)
  values : float array;
}

val create : nrows:int -> ncols:int -> colptr:int array -> rowind:int array -> values:float array -> t
(** Low-level constructor; validates the CSC invariants (monotone colptr,
    sorted in-range row indices). *)

val of_triplets : nrows:int -> ncols:int -> (int * int * float) list -> t
(** Builds from (row, col, value) triplets; duplicate entries are summed,
    exact zeros are kept out. *)

val of_stamps :
  ?metrics:Util.Metrics.t ->
  nrows:int ->
  ncols:int ->
  ((int -> int -> float -> unit) -> unit) ->
  t
(** [of_stamps ~nrows ~ncols emit] builds CSC directly from a stamping
    pass: [emit stamp] calls [stamp i j v] once per contribution.
    [emit] MUST be replayable — it runs twice (a counting pass sizing
    every column exactly, then the fill); a sequence that changes
    between passes raises [Invalid_argument].  No triplet list is
    materialized: peak memory is 16 bytes per raw stamp plus two
    column counters, counted into [metrics] ([sparse.stream_stamps],
    [sparse.stream_nnz], [sparse.stream_peak_bytes]).  Duplicates sum
    in emission order (deterministic); exact-zero sums are dropped. *)

val to_triplets : t -> (int * int * float) list
(** Column-major list of structural entries. *)

val zero : nrows:int -> ncols:int -> t

val identity : int -> t

val of_dense : Dense.t -> t
(** Drops exact zeros. *)

val to_dense : t -> Dense.t

val dims : t -> int * int

val nnz : t -> int

val get : t -> int -> int -> float
(** [get a i j] is entry (i,j), 0 for structural zeros. O(log nnz-per-col). *)

val mul_vec : t -> Vec.t -> Vec.t
(** [mul_vec a x] is [A x]. *)

val mul_vec_into : t -> Vec.t -> Vec.t -> unit
(** [mul_vec_into a x y] sets [y <- A x] without allocating. *)

val mul_vec_acc : ?alpha:float -> t -> Vec.t -> Vec.t -> unit
(** [mul_vec_acc ~alpha a x y] accumulates [y <- y + alpha * A x] without
    allocating ([alpha] defaults to 1).  The allocation-free building
    block of transient right-hand sides and of the matrix-free Galerkin
    kernel. *)

val mul_vec_acc_off : ?alpha:float -> t -> Vec.t -> xoff:int -> Vec.t -> yoff:int -> unit
(** [mul_vec_acc_off ~alpha a x ~xoff y ~yoff] accumulates
    [y.(yoff..) <- y.(yoff..) + alpha * A x.(xoff..)] on slices of larger
    vectors — the per-block kernel of the matrix-free augmented operator
    (block vectors stay flat; no sub-array copies). *)

val transpose : t -> t

val add : t -> t -> t

val axpy : alpha:float -> t -> t -> t
(** [axpy ~alpha a b] is [alpha * A + B]. *)

val scale : float -> t -> t

val map_values : (float -> float) -> t -> t
(** Apply a function to every stored value, keeping the pattern (useful for
    building structural-union patterns via absolute values). *)

val diag : t -> Vec.t
(** Diagonal as a vector (square matrices). *)

val of_diag : Vec.t -> t

val kron_count : unit -> int
(** Process-wide number of {!kron} calls so far.  The matrix-free
    Galerkin solver promises to never assemble the augmented Kronecker
    operator; tests sample this counter around a solve to enforce it. *)

val kron : Dense.t -> t -> t
(** [kron c a] is the Kronecker product [C (X) A]: block (i,j) equals
    [c.(i,j) * A].  Structural zeros of [c] produce no entries.  This is the
    assembly primitive for the stochastic Galerkin system
    [Gt = sum_i T_i (X) G_i]. *)

val permute_sym : t -> Perm.t -> t
(** [permute_sym a p] is [A'] with [A'.(i,j) = A.(p.(i), p.(j))] — the
    symmetric permutation [P A P^T] for square [a]. *)

val lower : t -> t
(** Lower-triangular part including the diagonal. *)

val upper : t -> t

val is_symmetric : ?tol:float -> t -> bool

val max_abs : t -> float

val approx_equal : ?tol:float -> t -> t -> bool
(** Entrywise comparison (on the union pattern). *)
