(* In-memory span recorder for the traced pass.  Spans are recorded by
   the benchmark around its calls into the program's public functions;
   nothing inside the program is instrumented.  A span has a name, the
   layer it is charged to, a start, an end and the span that caused it.
   A layer's self time is the time of its spans minus the part their
   child spans cover. *)

type span = {
  id : int;
  name : string;
  layer : string;
  parent : int;  (* -1 for a root *)
  start : float;
  mutable stop : float;
  derived : bool;
      (* duration taken from one of the program's own Util.Metrics
         histograms rather than from a call boundary *)
}

type t = {
  clock : Util.Timer.t;
  mutable spans : span list;  (* newest first *)
  mutable stack : int list;
  mutable next : int;
}

let create () = { clock = Util.Timer.start (); spans = []; stack = []; next = 0 }

let now t = Util.Timer.elapsed_s t.clock

let with_span t ~layer name f =
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  let s = { id = t.next; name; layer; parent; start = now t; stop = nan; derived = false } in
  t.next <- t.next + 1;
  t.spans <- s :: t.spans;
  t.stack <- s.id :: t.stack;
  Fun.protect
    ~finally:(fun () ->
      s.stop <- now t;
      t.stack <- List.tl t.stack)
    f

(* Id of the innermost open span (-1 outside any span). *)
let current t = match t.stack with p :: _ -> p | [] -> -1

let duration s = s.stop -. s.start

let spans t = List.rev t.spans

let find t id = List.find (fun s -> s.id = id) t.spans

(* Add a child of the most recent span named [within] that covers the
   last [seconds] of it — for a phase the program times itself inside
   one public call (the recovery inside an ST transient solve). *)
let add_derived t ~layer ~within name seconds =
  match List.find_opt (fun s -> s.name = within) t.spans with
  | None -> ()
  | Some p ->
      let d = Float.min seconds (duration p) in
      t.spans <-
        { id = t.next; name; layer; parent = p.id; start = p.stop -. d; stop = p.stop;
          derived = true }
        :: t.spans;
      t.next <- t.next + 1

let children t id = List.filter (fun s -> s.parent = id) t.spans

let self_time t s =
  duration s -. List.fold_left (fun acc c -> acc +. duration c) 0.0 (children t s.id)

let total t name =
  List.fold_left (fun acc s -> if s.name = name then acc +. duration s else acc) 0.0 t.spans

(* Self time per layer over every span. *)
let layer_self t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl s.layer) in
      Hashtbl.replace tbl s.layer (prev +. self_time t s))
    t.spans;
  fun layer -> Option.value ~default:0.0 (Hashtbl.find_opt tbl layer)

(* Chrome trace-event JSON (opens in Perfetto / chrome://tracing);
   [other] lands under the format's free-form "otherData" key. *)
let write_chrome t ~other path =
  let event s =
    Util.Json.Obj
      [
        ("name", Util.Json.Str s.name);
        ("cat", Util.Json.Str s.layer);
        ("ph", Util.Json.Str "X");
        ("ts", Util.Json.Num (Float.round (s.start *. 1e7) /. 10.0));
        ("dur", Util.Json.Num (Float.round (duration s *. 1e7) /. 10.0));
        ("pid", Util.Json.Num 1.0);
        ("tid", Util.Json.Num 1.0);
        ( "args",
          Util.Json.Obj
            [
              ("id", Util.Json.Num (float_of_int s.id));
              ("parent", Util.Json.Num (float_of_int s.parent));
              ("self_s", Util.Json.Num (self_time t s));
              ("derived", Util.Json.Bool s.derived);
            ] );
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (Util.Json.render
           (Util.Json.Obj
              [
                ("traceEvents", Util.Json.List (List.map event (spans t)));
                ("otherData", Util.Json.Obj other);
              ]));
      output_char oc '\n')
