(* The query path, two ways.

   [untraced] is the program's own entry point, [Mediator.run_query]. The
   end-to-end metrics time only this.

   [traced] makes the same calls [run_query] makes, in the same order,
   through the layers' public functions, with a span around each one:
   parse and resolve (twice, as [run_query] does), per-variant join search
   and plan-cache pricing, estimation of the chosen plan, whole-plan
   verification behind a generation-stamped memo, wrapper submits, and
   mediator-side composition. Answers and simulated costs are bit-identical
   to [run_query]'s, which the traced run checks on every query. *)

open Disco_algebra
open Disco_core
open Disco_exec
open Disco_mediator

module Plan_tbl = Hashtbl.Make (struct
  type t = Plan.t

  let equal = Plan.equal_structural
  let hash = Plan.hash
end)

(* A mediator plus the verification memo [run_query] keeps privately. *)
type replica = { med : Mediator.t; verified : int Plan_tbl.t; verify : bool }

let replica ~verify med = { med; verified = Plan_tbl.create 64; verify }

let untraced r sql = Mediator.run_query ~verify:r.verify r.med sql

(* The cross-query plan cache in front of the estimator, as [run_query]
   prices each variant's complete plan. *)
let cached_estimate med plan =
  let reg = Mediator.registry med in
  let var = Disco_costlang.Ast.Total_time in
  let fresh () =
    Option.get (Estimator.var (Estimator.estimate ~require_vars:[ var ] reg plan) var)
  in
  if not (Mediator.cache_enabled med) then fresh ()
  else
    let cache = Mediator.plancache med in
    match Plancache.find cache reg ~objective:var plan with
    | Some cost -> cost
    | None ->
      let cost = fresh () in
      Plancache.add cache reg ~objective:var plan cost;
      cost

let verify_chosen r plan estimate =
  let reg = Mediator.registry r.med in
  let gen = Registry.generation reg in
  match Plan_tbl.find_opt r.verified plan with
  | Some g when g = gen -> ()
  | _ ->
    let module PC = Disco_analysis.Plancheck in
    let pc = PC.check ~ctx:`Mediator reg plan in
    let findings =
      if PC.errors pc <> [] then pc
      else pc @ Disco_analysis.Planbound.check_ann reg estimate
    in
    (match PC.errors findings with
     | [] ->
       if Plan_tbl.length r.verified >= 4096 then Plan_tbl.reset r.verified;
       Plan_tbl.replace r.verified plan gen
     | errs -> raise (Mediator.Invalid_plan errs))

let traced tr r sql : Mediator.answer =
  let med = r.med in
  let span name f = Trace.span tr name f in
  span "query" (fun () ->
      let resolve text =
        let q = span "sql.parse" (fun () -> Disco_sql.Sql.parse text) in
        span "mediator.resolve" (fun () -> Mediator.resolve med q)
      in
      let outer = resolve sql in
      let inner = resolve sql in
      let variants =
        span "mediator.resolve" (fun () ->
            Mediator.check_sources_available med inner;
            Mediator.variants inner)
      in
      let candidates =
        List.map
          (fun v ->
            let plan =
              span "optimizer.plan" (fun () ->
                  Mediator.plan_of_variant ~objective:Optimizer.Total_time med v)
            in
            (plan, span "plancache.probe" (fun () -> cached_estimate med plan)))
          variants
      in
      let plan, _ =
        match candidates with
        | [] -> raise (Disco_common.Err.Plan_error "no plan")
        | first :: rest ->
          List.fold_left (fun best c -> if snd c < snd best then c else best) first rest
      in
      let estimate =
        span "estimator.estimate" (fun () -> Estimator.estimate (Mediator.registry med) plan)
      in
      if r.verify then span "verify.check" (fun () -> verify_chosen r plan estimate);
      let physical = span "wrapper.submit" (fun () -> Mediator.to_physical med plan) in
      let rows, measured =
        span "exec.compose" (fun () -> Run.measure (Mediator.mediator_run_env med) physical)
      in
      let rows =
        match outer.Mediator.limit with
        | Some n -> List.filteri (fun i _ -> i < n) rows
        | None -> rows
      in
      { Mediator.rows; plan; estimate; measured; replans = 0; recovered = [] })

(* The simulated part of a measured vector; [wall_ms] is real time. *)
let simulated (v : Run.vector) =
  [ v.Run.count; v.Run.size; v.Run.time_first; v.Run.time_next; v.Run.total_time ]

let same_answer (a : Mediator.answer) (b : Mediator.answer) =
  List.length a.Mediator.rows = List.length b.Mediator.rows
  && List.for_all2 Tuple.equal a.Mediator.rows b.Mediator.rows
  && Plan.equal_structural a.Mediator.plan b.Mediator.plan
  && List.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       (simulated a.Mediator.measured) (simulated b.Mediator.measured)

(* --- layer counters ----------------------------------------------------------

   Read before and after each query, outside its spans. *)

type counters = {
  considered : int;
  aborted : int;
  pairs : int;
  dp_entries : int;
  formula_evals : int;
  hits : int;
  misses : int;
  stale : int;
  records : int;
  generation : int;
  buffer_hits : int;
  buffer_misses : int;
}

let counters med (wrappers : Disco_wrapper.Wrapper.t list) =
  let os = Mediator.optimizer_stats med in
  let pc = Plancache.counters (Mediator.plancache med) in
  let sum f = List.fold_left (fun acc w -> acc + f w.Disco_wrapper.Wrapper.buffer) 0 wrappers in
  { considered = os.Optimizer.plans_considered;
    aborted = os.Optimizer.plans_aborted;
    pairs = os.Optimizer.csg_cmp_pairs;
    dp_entries = os.Optimizer.dp_entries;
    formula_evals = os.Optimizer.formula_evals;
    hits = pc.Plancache.hits;
    misses = pc.Plancache.misses;
    stale = pc.Plancache.stale;
    records = List.length (History.records (Mediator.history med));
    generation = Registry.generation (Mediator.registry med);
    buffer_hits = sum Disco_storage.Buffer.hits;
    buffer_misses = sum Disco_storage.Buffer.misses }

(* Named deltas [after - before], in the per-layer metrics' names. *)
let deltas a b =
  [ ("optimizer.plans_considered", b.considered - a.considered);
    ("optimizer.plans_aborted", b.aborted - a.aborted);
    ("optimizer.csg_cmp_pairs", b.pairs - a.pairs);
    ("optimizer.dp_entries", b.dp_entries - a.dp_entries);
    ("optimizer.formula_evals", b.formula_evals - a.formula_evals);
    ("plancache.hits", b.hits - a.hits);
    ("plancache.misses", b.misses - a.misses);
    ("plancache.stale", b.stale - a.stale);
    ("wrapper.submits", b.records - a.records);
    ("history.generation_bumps", b.generation - a.generation);
    ("storage.buffer_hits", b.buffer_hits - a.buffer_hits);
    ("storage.buffer_misses", b.buffer_misses - a.buffer_misses) ]
