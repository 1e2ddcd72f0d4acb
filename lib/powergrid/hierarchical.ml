type block = {
  nodes : int array;  (** global ids of internal nodes *)
  factor : Linalg.Sparse_cholesky.t;  (** of the internal matrix A_ii *)
  a_ib : Linalg.Sparse.t;  (** internal(local) x ports coupling *)
}

type t = {
  n : int;
  port_of : int array;  (** global node -> port id, -1 for internal *)
  blocks : block array;
  schur : Linalg.Cholesky.t;
  nports : int;
}

let partition_by_stripes ~n ~blocks =
  if blocks < 1 || blocks > n then invalid_arg "Hierarchical.partition_by_stripes: bad block count";
  Array.init n (fun i -> i * blocks / n)

let build a ~part =
  let n, m = Linalg.Sparse.dims a in
  if n <> m then invalid_arg "Hierarchical.build: matrix is not square";
  if Array.length part <> n then invalid_arg "Hierarchical.build: partition length mismatch";
  let nblocks = 1 + Array.fold_left Int.max 0 part in
  let { Linalg.Sparse.colptr; rowind; values; _ } = a in
  (* Ports: nodes coupled to another block. *)
  let is_port = Array.make n false in
  for j = 0 to n - 1 do
    for k = colptr.(j) to colptr.(j + 1) - 1 do
      let i = rowind.(k) in
      if part.(i) <> part.(j) then begin
        is_port.(i) <- true;
        is_port.(j) <- true
      end
    done
  done;
  let port_of = Array.make n (-1) in
  let nports = ref 0 in
  for i = 0 to n - 1 do
    if is_port.(i) then begin
      port_of.(i) <- !nports;
      incr nports
    end
  done;
  let nports = !nports in
  if nports = 0 then invalid_arg "Hierarchical.build: single block (no ports); use a flat solver";
  (* Internal node lists per block, and their local indices. *)
  let local_of = Array.make n (-1) in
  let block_of = Array.make n (-1) in
  let members = Array.make nblocks [] in
  for i = n - 1 downto 0 do
    if not is_port.(i) then members.(part.(i)) <- i :: members.(part.(i))
  done;
  let member_arrays = Array.map Array.of_list members in
  Array.iteri
    (fun bid nodes ->
      Array.iteri
        (fun local g ->
          local_of.(g) <- local;
          block_of.(g) <- bid)
        nodes)
    member_arrays;
  (* Dense Schur complement starts as A_pp. *)
  let schur_dense = Linalg.Dense.create nports nports in
  for j = 0 to n - 1 do
    if is_port.(j) then
      for k = colptr.(j) to colptr.(j + 1) - 1 do
        let i = rowind.(k) in
        if is_port.(i) then Linalg.Dense.add_entry schur_dense port_of.(i) port_of.(j) values.(k)
      done
  done;
  (* Per-block macromodels. *)
  let blocks =
    member_arrays
    |> Array.to_list
    |> List.filter (fun nodes -> Array.length nodes > 0)
    |> List.map (fun nodes ->
           let bid = block_of.(nodes.(0)) in
           let nb = Array.length nodes in
           let bii = Linalg.Sparse_builder.create ~nrows:nb ~ncols:nb () in
           let bib = Linalg.Sparse_builder.create ~nrows:nb ~ncols:nports () in
           Array.iteri
             (fun jl g ->
               for k = colptr.(g) to colptr.(g + 1) - 1 do
                 let i = rowind.(k) in
                 if is_port.(i) then Linalg.Sparse_builder.add bib jl port_of.(i) values.(k)
                 else begin
                   (* both internal; connectivity implies same block *)
                   assert (block_of.(i) = bid);
                   Linalg.Sparse_builder.add bii local_of.(i) jl values.(k)
                 end
               done)
             nodes;
           let a_ii = Linalg.Sparse_builder.to_csc bii in
           let a_ib = Linalg.Sparse_builder.to_csc bib in
           let factor = Linalg.Sparse_cholesky.factor ~ordering:Linalg.Ordering.Min_degree a_ii in
           (* Schur update: S -= A_bi A_ii^-1 A_ib, column by nonzero column. *)
           let { Linalg.Sparse.colptr = bp; rowind = bi; values = bv; _ } = a_ib in
           let work = Array.make nb 0.0 in
           for c = 0 to nports - 1 do
             if bp.(c + 1) > bp.(c) then begin
               let w = Array.make nb 0.0 in
               for k = bp.(c) to bp.(c + 1) - 1 do
                 w.(bi.(k)) <- bv.(k)
               done;
               Linalg.Sparse_cholesky.solve_in_place_ws factor ~work w;
               (* row r of the update: (A_ib[:, r]) . w *)
               for r = 0 to nports - 1 do
                 if bp.(r + 1) > bp.(r) then begin
                   let acc = ref 0.0 in
                   for k = bp.(r) to bp.(r + 1) - 1 do
                     acc := !acc +. (bv.(k) *. w.(bi.(k)))
                   done;
                   if Util.Floats.nonzero !acc then Linalg.Dense.add_entry schur_dense r c (-. !acc)
                 end
               done
             end
           done;
           { nodes; factor; a_ib })
    |> Array.of_list
  in
  let schur = Linalg.Cholesky.factor schur_dense in
  (* local_of / block_of are build-time scratch only: solves never map
     back from global ids, so the record does not retain them. *)
  { n; port_of; blocks; schur; nports }

let ports t = t.nports

let internal_blocks t = Array.length t.blocks

let solve t b =
  if Array.length b <> t.n then invalid_arg "Hierarchical.solve: dimension mismatch";
  (* Gather per-block internal RHS and the port RHS. *)
  let b_p = Array.make t.nports 0.0 in
  for i = 0 to t.n - 1 do
    if t.port_of.(i) >= 0 then b_p.(t.port_of.(i)) <- b.(i)
  done;
  let ys =
    Array.map
      (fun blk ->
        let bi = Linalg.Sparse_cholesky.solve blk.factor (Array.map (fun g -> b.(g)) blk.nodes) in
        (* rhs_p -= A_ib^T y *)
        let contrib = Linalg.Sparse.mul_vec_t blk.a_ib bi in
        for p = 0 to t.nports - 1 do
          b_p.(p) <- b_p.(p) -. contrib.(p)
        done;
        bi)
      t.blocks
  in
  ignore ys;
  let x_p = Linalg.Cholesky.solve t.schur b_p in
  let x = Array.make t.n 0.0 in
  for i = 0 to t.n - 1 do
    if t.port_of.(i) >= 0 then x.(i) <- x_p.(t.port_of.(i))
  done;
  Array.iter
    (fun blk ->
      let rhs = Array.map (fun g -> b.(g)) blk.nodes in
      let coupling = Linalg.Sparse.mul_vec blk.a_ib x_p in
      for k = 0 to Array.length rhs - 1 do
        rhs.(k) <- rhs.(k) -. coupling.(k)
      done;
      let xb = Linalg.Sparse_cholesky.solve blk.factor rhs in
      Array.iteri (fun k g -> x.(g) <- xb.(k)) blk.nodes)
    t.blocks;
  x
