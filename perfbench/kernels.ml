(* Kernel probes on a workload's own operators.  Each kernel runs on one
   domain and reports its median time per call and its bytes per call,
   computed from the sizes of the arrays it streams (every array read or
   written once per pass; an index array is 8 bytes per entry, a value
   array 8 bytes per entry).  Bytes over time, divided by the copy
   ceiling measured in the same run, gives the bandwidth share. *)

type kernel = { seconds : float; bytes : float }

let words n = 8.0 *. float_of_int n

(* y <- A x over a CSC matrix: colptr, rowind, values, x and y. *)
let spmv (a : Linalg.Sparse.t) =
  let nrows, ncols = Linalg.Sparse.dims a in
  let x = Array.make ncols 1.0 and y = Array.make nrows 0.0 in
  let seconds = Ledger.time_median (fun () -> Linalg.Sparse.mul_vec_into a x y) in
  let nnz = Linalg.Sparse.nnz a in
  { seconds; bytes = words (ncols + 1) +. words (2 * nnz) +. words ncols +. words nrows }

(* Forward and backward sweep of a Cholesky factor: the factor's column
   pointers, row indices and values stream twice, the right-hand side
   and the work vector are each read and written once per sweep. *)
let trisolve f =
  let n = Linalg.Sparse_cholesky.dim f in
  let nnz = Linalg.Sparse_cholesky.nnz_l f in
  let b = Array.make n 1.0 and x = Array.make n 0.0 and work = Array.make n 0.0 in
  let seconds =
    Ledger.time_median (fun () ->
        Array.blit b 0 x 0 n;
        Linalg.Sparse_cholesky.solve_in_place_ws f ~domains:1 ~work x)
  in
  { seconds; bytes = 2.0 *. (words (n + 1) +. words (2 * nnz)) +. (2.0 *. words (2 * n)) }

(* One matrix-free Galerkin apply: the per-rank matrices and couplings
   (Galerkin_op.nnz entries of value and index), x and y. *)
let galerkin_apply model =
  let op = Opera.Galerkin_op.gt ~domains:1 model in
  let dim = Opera.Galerkin_op.dim op in
  let x = Array.make dim 1.0 and y = Array.make dim 0.0 in
  let seconds = Ledger.time_median (fun () -> Opera.Galerkin_op.apply_into op x y) in
  { seconds; bytes = words (2 * Opera.Galerkin_op.nnz op) +. words (2 * dim) }

(* One AMG V-cycle on the nominal block: the hierarchy's stored entries
   (value and index) and, on every level, x, b and the residual. *)
let vcycle a =
  let amg = Linalg.Amg.build a in
  let n = Linalg.Amg.dim amg in
  let ws = Linalg.Amg.create_ws amg in
  let b = Array.make n 1.0 and x = Array.make n 0.0 in
  let seconds = Ledger.time_median (fun () -> Linalg.Amg.apply amg ws ~b ~x) in
  let level_words = List.fold_left ( + ) 0 (Linalg.Amg.level_dims amg) in
  { seconds; bytes = words (2 * Linalg.Amg.stored_nnz amg) +. words (3 * level_words) }

let bw_share k ~copy_gbps = k.bytes /. k.seconds /. 1e9 /. copy_gbps
