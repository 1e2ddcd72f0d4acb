type t = { rows : int; cols : int; data : float array }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Dense.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      m.data.((i * cols) + j) <- f i j
    done
  done;
  m

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let of_arrays rows_arr =
  let rows = Array.length rows_arr in
  if rows = 0 then create 0 0
  else begin
    let cols = Array.length rows_arr.(0) in
    Array.iter
      (fun r -> if Array.length r <> cols then invalid_arg "Dense.of_arrays: ragged rows")
      rows_arr;
    init rows cols (fun i j -> rows_arr.(i).(j))
  end

let to_arrays m = Array.init m.rows (fun i -> Array.sub m.data (i * m.cols) m.cols)

let dims m = (m.rows, m.cols)

let check_bounds m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg (Printf.sprintf "Dense: index (%d, %d) out of bounds %dx%d" i j m.rows m.cols)

let get m i j =
  check_bounds m i j;
  m.data.((i * m.cols) + j)

let set m i j v =
  check_bounds m i j;
  m.data.((i * m.cols) + j) <- v

let copy m = { m with data = Array.copy m.data }

let transpose m = init m.cols m.rows (fun i j -> m.data.((j * m.cols) + i))

let check_same_dims name a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg (Printf.sprintf "Dense.%s: dimension mismatch" name)

let zip name f a b =
  check_same_dims name a b;
  { a with data = Array.init (Array.length a.data) (fun k -> f a.data.(k) b.data.(k)) }

let add a b = zip "add" ( +. ) a b

let sub a b = zip "sub" ( -. ) a b

let scale alpha a = { a with data = Array.map (fun v -> alpha *. v) a.data }

let matmul a b =
  if a.cols <> b.rows then invalid_arg "Dense.matmul: inner dimension mismatch";
  let c = create a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = a.data.((i * a.cols) + k) in
      if Util.Floats.nonzero aik then
        for j = 0 to b.cols - 1 do
          c.data.((i * c.cols) + j) <- c.data.((i * c.cols) + j) +. (aik *. b.data.((k * b.cols) + j))
        done
    done
  done;
  c

let matvec a x =
  if a.cols <> Array.length x then invalid_arg "Dense.matvec: dimension mismatch";
  let y = Vec.create a.rows in
  for i = 0 to a.rows - 1 do
    let acc = ref 0.0 in
    for j = 0 to a.cols - 1 do
      acc := !acc +. (a.data.((i * a.cols) + j) *. x.(j))
    done;
    y.(i) <- !acc
  done;
  y

let matvec_t a x =
  if a.rows <> Array.length x then invalid_arg "Dense.matvec_t: dimension mismatch";
  let y = Vec.create a.cols in
  for i = 0 to a.rows - 1 do
    let xi = x.(i) in
    if Util.Floats.nonzero xi then
      for j = 0 to a.cols - 1 do
        y.(j) <- y.(j) +. (a.data.((i * a.cols) + j) *. xi)
      done
  done;
  y

let row m i =
  if i < 0 || i >= m.rows then invalid_arg "Dense.row: out of bounds";
  Array.sub m.data (i * m.cols) m.cols

let col m j =
  if j < 0 || j >= m.cols then invalid_arg "Dense.col: out of bounds";
  Array.init m.rows (fun i -> m.data.((i * m.cols) + j))

let frobenius_norm m = sqrt (Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 m.data)

let max_abs m = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 m.data

let is_symmetric ?(tol = 1e-12) m =
  m.rows = m.cols
  &&
  let ok = ref true in
  for i = 0 to m.rows - 1 do
    for j = i + 1 to m.cols - 1 do
      if Float.abs (m.data.((i * m.cols) + j) -. m.data.((j * m.cols) + i)) > tol then ok := false
    done
  done;
  !ok

let approx_equal ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols && Vec.approx_equal ~tol a.data b.data

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf ppf "[";
    for j = 0 to m.cols - 1 do
      Format.fprintf ppf "%12.5g%s" m.data.((i * m.cols) + j) (if j = m.cols - 1 then "" else " ")
    done;
    Format.fprintf ppf "]@,"
  done;
  Format.fprintf ppf "@]"
