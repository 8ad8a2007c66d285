(* Per-layer metrics of a traced run: span times and counter deltas per
   query, in the names BENCHMARK.json lists. *)

type acc = {
  mutable queries : int;
  deltas : (string, int) Hashtbl.t;  (* summed counter deltas *)
  mutable qerrors : float list;      (* max(est/meas, meas/est) of TotalTime *)
  mutable rows_out : int;
  mutable traced_ms : float;
  mutable untraced_ms : float;
}

let create () =
  { queries = 0; deltas = Hashtbl.create 16; qerrors = []; rows_out = 0;
    traced_ms = 0.; untraced_ms = 0. }

let add_query acc ~deltas ~(answer : Disco_mediator.Mediator.answer) ~traced_ms
    ~untraced_ms =
  acc.queries <- acc.queries + 1;
  List.iter
    (fun (k, d) ->
      Hashtbl.replace acc.deltas k (d + Option.value ~default:0 (Hashtbl.find_opt acc.deltas k)))
    deltas;
  let est = Disco_core.Estimator.total_time answer.Disco_mediator.Mediator.estimate in
  let meas = answer.Disco_mediator.Mediator.measured.Disco_exec.Run.total_time in
  if est > 0. && meas > 0. then acc.qerrors <- Float.max (est /. meas) (meas /. est) :: acc.qerrors;
  acc.rows_out <- acc.rows_out + List.length answer.Disco_mediator.Mediator.rows;
  acc.traced_ms <- acc.traced_ms +. traced_ms;
  acc.untraced_ms <- acc.untraced_ms +. untraced_ms

(* Layer times of the server path, when the workload has one. *)
type server = {
  wall_ms : float;
  wire_ms : float;
  encode_ms : float;
  decode_ms : float;
  queue_wait_ms : float;
}

let no_server =
  { wall_ms = 0.; wire_ms = 0.; encode_ms = 0.; decode_ms = 0.; queue_wait_ms = 0. }

let metrics ?(server = no_server) acc (tr : Trace.t) ~generate_s ~register_s =
  let n = float_of_int (max acc.queries 1) in
  let in_query (s : Trace.span) = s.Trace.qid >= 0 in
  let totals = Trace.totals ~keep:in_query tr in
  let per_query name = Trace.total_ms totals name /. n in
  let count k = float_of_int (Option.value ~default:0 (Hashtbl.find_opt acc.deltas k)) in
  let ratio a b = if a +. b > 0. then a /. (a +. b) else 0. in
  let query_ms = Trace.total_ms totals "query" in
  let unaccounted = Trace.unaccounted_ms ~keep:in_query tr ~root:"query" in
  let m = Report.metric in
  [ m "sql.parse_us" "us" (per_query "sql.parse" *. 1000.);
    m "mediator.resolve_us" "us" (per_query "mediator.resolve" *. 1000.);
    m "optimizer.plan_ms" "ms" (per_query "optimizer.plan");
    m "optimizer.us_per_candidate" "us"
      (let c = count "optimizer.plans_considered" in
       if c > 0. then Trace.total_ms totals "optimizer.plan" *. 1000. /. c else 0.);
    m "optimizer.plans_considered" "count" (count "optimizer.plans_considered" /. n);
    m "optimizer.plans_aborted" "count" (count "optimizer.plans_aborted" /. n);
    m "optimizer.csg_cmp_pairs" "count" (count "optimizer.csg_cmp_pairs" /. n);
    m "optimizer.dp_entries" "count" (count "optimizer.dp_entries" /. n);
    m "optimizer.formula_evals" "count" (count "optimizer.formula_evals" /. n);
    m "plancache.probe_ms" "ms" (per_query "plancache.probe");
    m "plancache.hits" "count" (count "plancache.hits" /. n);
    m "plancache.misses" "count" (count "plancache.misses" /. n);
    m "plancache.stale" "count" (count "plancache.stale" /. n);
    m "plancache.hit_ratio" "ratio" (ratio (count "plancache.hits") (count "plancache.misses"));
    m "estimator.estimate_ms" "ms" (per_query "estimator.estimate");
    m "estimator.qerror" "ratio" (Report.geomean acc.qerrors);
    m "verify.check_ms" "ms" (per_query "verify.check");
    m "wrapper.submit_ms" "ms" (per_query "wrapper.submit");
    m "wrapper.submits" "count" (count "wrapper.submits" /. n);
    m "storage.buffer_hits" "count" (count "storage.buffer_hits" /. n);
    m "storage.buffer_misses" "count" (count "storage.buffer_misses" /. n);
    m "storage.hit_ratio" "ratio"
      (ratio (count "storage.buffer_hits") (count "storage.buffer_misses"));
    m "exec.compose_ms" "ms" (per_query "exec.compose");
    m "exec.rows_out" "count" (float_of_int acc.rows_out /. n);
    m "history.generation_bumps" "count" (count "history.generation_bumps" /. n);
    m "setup.generate_s" "s" generate_s;
    m "setup.register_s" "s" register_s;
    m "server.wall_ms" "ms" server.wall_ms;
    m "server.wire_ms" "ms" server.wire_ms;
    m "server.encode_ms" "ms" server.encode_ms;
    m "server.decode_ms" "ms" server.decode_ms;
    m "server.queue_wait_ms" "ms" server.queue_wait_ms;
    m "trace.overhead_ms" "ms" ((acc.traced_ms -. acc.untraced_ms) /. n);
    m "trace.unaccounted_ms" "ms" (unaccounted /. n);
    m "trace.coverage_pct" "%"
      (if query_ms > 0. then 100. *. (1. -. (unaccounted /. query_ms)) else 0.) ]
