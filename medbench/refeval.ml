(* The reference evaluator the correctness checks compare against.

   It computes each query's expected rows straight from the generated table
   rows, with its own scans, filters, hash joins, group-by counts and
   distinct. It shares nothing with the mediator's SQL front end, planner or
   executors: only the stored rows ({!Disco_storage.Table.rows}) and the
   constant type. Rows are compared as sorted multisets of canonical
   strings; ORDER BY is checked separately as a property of the answer. *)

open Disco_common
module Table = Disco_storage.Table

(* --- canonical rows ------------------------------------------------------- *)

let canon (c : Constant.t) =
  match c with
  | Constant.Null -> "N"
  | Constant.Bool b -> if b then "T" else "F"
  | Constant.Int i -> "i" ^ string_of_int i
  | Constant.Float f -> Printf.sprintf "f%h" f
  | Constant.String s -> "s" ^ String.escaped s

let row_key values = String.concat "\x1f" (List.map canon values)

(* A query with its expected answer. [cols] are the output attributes in
   SELECT order, [order] the ORDER BY keys the answer must be sorted by. *)
type query = {
  sql : string;
  cols : string list;
  order : (string * [ `Asc | `Desc ]) list;
  expected : string list;  (* sorted canonical rows *)
}

let sorted rows = List.sort String.compare rows

(* --- a small relational toolkit ------------------------------------------- *)

(* A relation: qualified column names and rows. *)
type rel = { cols : string array; rows : Constant.t array list }

let scan (tbl : Table.t) ~alias =
  { cols =
      Array.of_list
        (List.map (fun a -> alias ^ "." ^ a)
           (Disco_catalog.Schema.attribute_names tbl.Table.schema));
    rows = Table.rows tbl }

let pos rel name =
  let rec go i =
    if i >= Array.length rel.cols then invalid_arg ("refeval: no column " ^ name)
    else if rel.cols.(i) = name then i
    else go (i + 1)
  in
  go 0

let num (c : Constant.t) =
  match c with
  | Constant.Int i -> float_of_int i
  | Constant.Float f -> f
  | _ -> nan

(* Keep rows whose column [name] satisfies [f] on its numeric value. *)
let filter rel name f =
  let i = pos rel name in
  { rel with rows = List.filter (fun r -> f (num r.(i))) rel.rows }

(* Equi-join [l.a = r.b]: build a hash table on the right input, probe with
   the left one. *)
let hash_join l a r b =
  let ia = pos l a and ib = pos r b in
  let build = Hashtbl.create (List.length r.rows) in
  List.iter (fun row -> Hashtbl.add build (canon row.(ib)) row) r.rows;
  let rows =
    List.concat_map
      (fun lrow ->
        List.map (fun rrow -> Array.append lrow rrow)
          (Hashtbl.find_all build (canon lrow.(ia))))
      l.rows
  in
  { cols = Array.append l.cols r.cols; rows }

let project rel names =
  let idx = List.map (pos rel) names in
  sorted (List.map (fun row -> row_key (List.map (fun i -> row.(i)) idx)) rel.rows)

(* [select key, count( * ) ... group by key]. *)
let group_count rel key =
  let i = pos rel key in
  let counts = Hashtbl.create 64 in
  List.iter
    (fun row ->
      let k = row.(i) in
      let c = Option.value ~default:0 (Hashtbl.find_opt counts k) in
      Hashtbl.replace counts k (c + 1))
    rel.rows;
  sorted
    (Hashtbl.fold (fun k c acc -> row_key [ k; Constant.Int c ] :: acc) counts [])

let distinct rows = List.sort_uniq String.compare rows

(* --- the demo corpus ---------------------------------------------------------

   The eight queries `disco verify` plans over the four-source demo
   federation. *)

let demo_corpus (find : string -> Table.t) : query list =
  let t name alias = scan (find name) ~alias in
  let q ?(order = []) sql cols expected = { sql; cols; order; expected } in
  let emp = t "Employee" "e" and dept = t "Department" "d" in
  let proj = t "Project" "p" and task = t "Task" "t" in
  let doc = t "Document" "doc" and listing = t "Listing" "l" in
  [ q "select e.name from Employee e where e.salary > 5000" [ "e.name" ]
      (project (filter emp "e.salary" (fun v -> v > 5000.)) [ "e.name" ]);
    q ~order:[ ("e.age", `Asc) ]
      "select e.name, e.age from Employee e where e.age >= 30 order by e.age"
      [ "e.name"; "e.age" ]
      (project (filter emp "e.age" (fun v -> v >= 30.)) [ "e.name"; "e.age" ]);
    q
      "select e.name, d.city from Employee e, Department d where e.dept_id = \
       d.id and d.budget > 100000"
      [ "e.name"; "d.city" ]
      (project
         (hash_join emp "e.dept_id"
            (filter dept "d.budget" (fun v -> v > 100000.))
            "d.id")
         [ "e.name"; "d.city" ]);
    q ~order:[ ("t.hours", `Asc) ]
      "select p.id, t.hours from Project p, Task t where t.project_id = p.id \
       order by t.hours"
      [ "p.id"; "t.hours" ]
      (project (hash_join task "t.project_id" proj "p.id") [ "p.id"; "t.hours" ]);
    q
      "select d.id, count(*) as n from Employee e, Department d where \
       e.dept_id = d.id group by d.id"
      [ "d.id"; "n" ]
      (group_count (hash_join emp "e.dept_id" dept "d.id") "d.id");
    q "select doc.doc_id from Document doc where doc.bytes > 1000"
      [ "doc.doc_id" ]
      (project (filter doc "doc.bytes" (fun v -> v > 1000.)) [ "doc.doc_id" ]);
    q
      "select l.rating, e.name from Listing l, Employee e where l.emp_id = e.id"
      [ "l.rating"; "e.name" ]
      (project (hash_join listing "l.emp_id" emp "e.id") [ "l.rating"; "e.name" ]);
    q
      "select p.id, doc.doc_id from Project p, Document doc where \
       doc.project_id = p.id and p.cost > 100"
      [ "p.id"; "doc.doc_id" ]
      (project
         (hash_join doc "doc.project_id"
            (filter proj "p.cost" (fun v -> v > 100.))
            "p.id")
         [ "p.id"; "doc.doc_id" ]) ]

(* --- synthetic wide joins -------------------------------------------------

   The [r0.id] multiset of an n-way join over [Rel0 .. Rel{n-1}]. Relations
   join in breadth-first order from [r0]: the first edge to an already
   joined relation is the hash-join key, every further one a filter. *)

let wide_r0_ids ~(tables : Table.t array) ~edges ~(sels : (int * int) list) =
  let n = List.fold_left (fun m (a, b, _) -> max m (max a b + 1)) 1 edges in
  let col i name =
    match Disco_catalog.Schema.attr_index tables.(i).Table.schema name with
    | Some p -> p
    | None -> invalid_arg ("refeval: no attribute " ^ name)
  in
  let int_of (c : Constant.t) =
    match c with Constant.Int v -> v | _ -> invalid_arg "refeval: non-int key"
  in
  let rows =
    Array.init n (fun i ->
        let v = col i "v" in
        Array.of_list
          (List.filter
             (fun r ->
               List.for_all (fun (j, c) -> j <> i || int_of r.(v) > c) sels)
             (Table.rows tables.(i))))
  in
  (* the attribute of relation [i] that edge [(a, b, kind)] joins on *)
  let attr_of (_, b, kind) i =
    match kind with
    | `Grp -> col i "grp"
    | `Fk -> if i = b then col i "fk" else col i "id"
  in
  let order =
    let seen = Array.make n false and out = ref [] in
    let queue = Queue.create () in
    seen.(0) <- true;
    Queue.push 0 queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      out := u :: !out;
      List.iter
        (fun (a, b, _) ->
          let v = if a = u then b else if b = u then a else -1 in
          if v >= 0 && not seen.(v) then begin
            seen.(v) <- true;
            Queue.push v queue
          end)
        edges
    done;
    List.rev !out
  in
  let joined = Array.make n false in
  (* partial results: row index per relation, -1 where not joined yet *)
  let partial =
    ref (List.init (Array.length rows.(0)) (fun r -> Array.init n (fun i -> if i = 0 then r else -1)))
  in
  joined.(0) <- true;
  List.iter
    (fun v ->
      if v <> 0 then begin
        let links =
          List.filter_map
            (fun ((a, b, _) as e) ->
              if a = v && joined.(b) then Some (e, b)
              else if b = v && joined.(a) then Some (e, a)
              else None)
            edges
        in
        match links with
        | [] -> invalid_arg "refeval: disconnected join graph"
        | (key_edge, u) :: rest ->
          let ku = attr_of key_edge u and kv = attr_of key_edge v in
          let build = Hashtbl.create 256 in
          Array.iteri (fun r row -> Hashtbl.add build (int_of row.(kv)) r) rows.(v);
          partial :=
            List.concat_map
              (fun p ->
                let key = int_of rows.(u).(p.(u)).(ku) in
                List.filter_map
                  (fun r ->
                    let ok =
                      List.for_all
                        (fun (e, w) ->
                          int_of rows.(w).(p.(w)).(attr_of e w)
                          = int_of rows.(v).(r).(attr_of e v))
                        rest
                    in
                    if ok then begin
                      let p' = Array.copy p in
                      p'.(v) <- r;
                      Some p'
                    end
                    else None)
                  (Hashtbl.find_all build key))
              !partial;
          joined.(v) <- true
      end)
    order;
  let id0 = col 0 "id" in
  sorted (List.map (fun p -> row_key [ rows.(0).(p.(0)).(id0) ]) !partial)

(* --- OO7 -------------------------------------------------------------------- *)

(* The OO7 tables with the reference's own access structures, built once:
   a hash index on AtomicPart ids and on Connection.fromId. *)
type oo7 = {
  atomic : rel;
  composite : rel;
  connection_by_from : (string, Constant.t array) Hashtbl.t;
  connection_cols : string array;
}

let oo7_of (find : string -> Table.t) =
  let atomic = scan (find "AtomicPart") ~alias:"a" in
  let composite = scan (find "CompositePart") ~alias:"c" in
  let connection = scan (find "Connection") ~alias:"k" in
  let from = pos connection "k.fromId" in
  let connection_by_from = Hashtbl.create (List.length connection.rows) in
  List.iter
    (fun row -> Hashtbl.add connection_by_from (canon row.(from)) row)
    connection.rows;
  { atomic; composite; connection_by_from; connection_cols = connection.cols }

let between lo hi v = v >= float_of_int lo && v < float_of_int hi

let oo7_exact r ~id =
  let sql =
    Printf.sprintf "select a.id, a.buildDate, a.x from AtomicPart a where a.id = %d" id
  in
  let cols = [ "a.id"; "a.buildDate"; "a.x" ] in
  { sql; cols; order = [];
    expected = project (filter r.atomic "a.id" (fun v -> v = float_of_int id)) cols }

let oo7_id_range r ~lo ~width =
  let sql =
    Printf.sprintf
      "select a.id, a.buildDate from AtomicPart a where a.id >= %d and a.id < \
       %d order by a.id"
      lo (lo + width)
  in
  let cols = [ "a.id"; "a.buildDate" ] in
  { sql; cols; order = [ ("a.id", `Asc) ];
    expected = project (filter r.atomic "a.id" (between lo (lo + width))) cols }

let oo7_date_range r ~lo ~width =
  let sql =
    Printf.sprintf
      "select a.id from AtomicPart a where a.buildDate >= %d and a.buildDate < %d"
      lo (lo + width)
  in
  let cols = [ "a.id" ] in
  { sql; cols; order = [];
    expected = project (filter r.atomic "a.buildDate" (between lo (lo + width))) cols }

let oo7_part_join r ~lo ~width =
  let sql =
    Printf.sprintf
      "select distinct c.id, c.buildDate from AtomicPart a, CompositePart c \
       where a.partOf = c.id and a.buildDate >= %d and a.buildDate < %d"
      lo (lo + width)
  in
  let cols = [ "c.id"; "c.buildDate" ] in
  { sql; cols; order = [];
    expected =
      distinct @@ project
        (hash_join
           (filter r.atomic "a.buildDate" (between lo (lo + width)))
           "a.partOf" r.composite "c.id")
        cols }

let oo7_connection_join r ~lo ~width =
  let sql =
    Printf.sprintf
      "select a.id, k.toId, k.length from AtomicPart a, Connection k where a.id \
       = k.fromId and a.id >= %d and a.id < %d"
      lo (lo + width)
  in
  let cols = [ "a.id"; "k.toId"; "k.length" ] in
  let outer = filter r.atomic "a.id" (between lo (lo + width)) in
  let id = pos outer "a.id" in
  let joined =
    { cols = Array.append outer.cols r.connection_cols;
      rows =
        List.concat_map
          (fun row ->
            List.map (Array.append row)
              (Hashtbl.find_all r.connection_by_from (canon row.(id))))
          outer.rows }
  in
  { sql; cols; order = []; expected = project joined cols }

let oo7_scan_aggregate r ~x =
  let sql =
    Printf.sprintf
      "select a.partOf, count(*) as n from AtomicPart a where a.x < %d group \
       by a.partOf"
      x
  in
  { sql; cols = [ "a.partOf"; "n" ]; order = [];
    expected = group_count (filter r.atomic "a.x" (fun v -> v < float_of_int x)) "a.partOf" }
