(* Span recorder for the traced run.

   Spans are taken from the benchmark's own code, around its calls into each
   layer's public functions: name, start, end, parent span and query id.
   They stay in memory while the run lasts and are written out as JSON lines
   when it ends. Times come from the monotonic clock, in nanoseconds. *)

let now_ns () = Monotonic_clock.now ()

let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

type span = {
  id : int;
  parent : int;  (* -1 for a root span *)
  qid : int;     (* -1 for spans outside any timed query (set-up, warm-up) *)
  name : string;
  start_ns : int64;
  end_ns : int64;
}

type t = {
  mutable spans : span list;  (* newest first *)
  mutable next_id : int;
  mutable current : int;      (* the open span new spans nest under *)
  mutable qid : int;
}

let create () = { spans = []; next_id = 0; current = -1; qid = -1 }

let set_query t qid = t.qid <- qid

(* Record [f ()] as a span named [name], nested under the innermost open
   span. An exception still closes the span. *)
let span t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = t.current in
  t.current <- id;
  let start_ns = now_ns () in
  let close () =
    let end_ns = now_ns () in
    t.current <- parent;
    t.spans <- { id; parent; qid = t.qid; name; start_ns; end_ns } :: t.spans
  in
  match f () with
  | v -> close (); v
  | exception e -> close (); raise e

let spans t = List.rev t.spans

let duration_ms s = ms_between s.start_ns s.end_ns

(* Total duration per span name, over spans that satisfy [keep]. *)
let totals ?(keep = fun _ -> true) t =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      if keep s then
        let prev = Option.value ~default:0. (Hashtbl.find_opt tbl s.name) in
        Hashtbl.replace tbl s.name (prev +. duration_ms s))
    t.spans;
  tbl

let total_ms tbl name = Option.value ~default:0. (Hashtbl.find_opt tbl name)

(* Self time of the root spans named [root]: their duration minus what
   their direct children cover — time no layer span accounts for. *)
let unaccounted_ms ?(keep = fun _ -> true) t ~root =
  let child_cover = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value ~default:0. (Hashtbl.find_opt child_cover s.parent) in
        Hashtbl.replace child_cover s.parent (prev +. duration_ms s))
    t.spans;
  List.fold_left
    (fun acc s ->
      if s.name = root && keep s then
        acc
        +. (duration_ms s
           -. Option.value ~default:0. (Hashtbl.find_opt child_cover s.id))
      else acc)
    0. t.spans

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let base =
        List.fold_left (fun m s -> if s.start_ns < m then s.start_ns else m)
          Int64.max_int t.spans
      in
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"qid\":%d,\"name\":%S,\"start_us\":%.3f,\"end_us\":%.3f}\n"
            s.id s.parent s.qid s.name
            (Int64.to_float (Int64.sub s.start_ns base) /. 1e3)
            (Int64.to_float (Int64.sub s.end_ns base) /. 1e3))
        (spans t))
