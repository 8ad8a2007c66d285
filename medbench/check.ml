(* Correctness checks of one answer against the reference evaluator, plus
   the properties every answer must have: ORDER BY output is sorted, and
   simulated times are finite and above 0. *)

open Disco_common
open Disco_exec
module Json = Disco_server.Json

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

let positive what v =
  if Float.is_finite v && v > 0. then Ok () else fail "%s is %h" what v

let ( let* ) = Result.bind

let rows (q : Refeval.query) (rows : Tuple.t list) =
  let* keys =
    match
      List.map (fun t -> Refeval.row_key (List.map (Tuple.get t) q.Refeval.cols)) rows
    with
    | keys -> Ok keys
    | exception Err.Eval_error e -> fail "answer lacks an output column: %s" e
  in
  let* () =
    if Refeval.sorted keys = q.Refeval.expected then Ok ()
    else
      fail "%d rows differ from the reference's %d" (List.length keys)
        (List.length q.Refeval.expected)
  in
  let cmp a b =
    List.fold_left
      (fun acc (k, dir) ->
        if acc <> 0 then acc
        else
          let c = Constant.compare (Tuple.get a k) (Tuple.get b k) in
          if dir = `Asc then c else -c)
      0 q.Refeval.order
  in
  let rec sorted = function
    | a :: (b :: _ as rest) -> cmp a b <= 0 && sorted rest
    | _ -> true
  in
  if sorted rows then Ok () else fail "ORDER BY output is not sorted"

let answer (q : Refeval.query) (a : Disco_mediator.Mediator.answer) =
  let* () = rows q a.Disco_mediator.Mediator.rows in
  let* () = positive "measured TotalTime" a.Disco_mediator.Mediator.measured.Run.total_time in
  positive "estimated TotalTime"
    (Disco_core.Estimator.total_time a.Disco_mediator.Mediator.estimate)

(* --- serve responses ---------------------------------------------------------- *)

let constant_of_json : Json.t -> Constant.t = function
  | Json.Null -> Constant.Null
  | Json.Bool b -> Constant.Bool b
  | Json.Int i -> Constant.Int i
  | Json.Float f -> Constant.Float f
  | Json.String s -> Constant.String s
  | Json.List _ | Json.Obj _ -> invalid_arg "nested value in a row"

let tuple_of_json = function
  | Json.Obj fields ->
    Tuple.make
      (Array.of_list (List.map fst fields))
      (Array.of_list (List.map (fun (_, v) -> constant_of_json v) fields))
  | _ -> invalid_arg "row is not an object"

let response_rows (j : Json.t) =
  match Json.member "rows" j with
  | Some (Json.List rows) -> List.map tuple_of_json rows
  | _ -> invalid_arg "response without rows"

let response (q : Refeval.query) (j : Json.t) =
  match Json.string_member "status" j with
  | Some "ok" ->
    let* () = rows q (response_rows j) in
    positive "measured_ms" (Option.value ~default:nan (Json.float_member "measured_ms" j))
  | other -> fail "status %s" (Option.value ~default:"missing" other)
