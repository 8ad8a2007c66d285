(* Closed-loop runs of an in-process workload: one caller, each query
   answered before the next is sent.

   An untraced part sets the federation up [spec.setups] times, runs one
   warm-up round, then whole rounds until the time spent inside
   [Mediator.run_query] reaches its share of the run length. The clock
   stops while the benchmark draws queries and checks answers. Peak memory
   is read once [rss_rounds] timed rounds are done, so it does not grow
   with how many rounds a faster mediator fits into the run.

   The traced run sets up two identical federations. Each query runs on one
   through [Mediator.run_query] and on the other through the traced
   pipeline, alternating which goes first; the two answers must be
   bit-identical, and the traced one must match the reference. *)

open Workloads

(* Attempted/failed bookkeeping shared by every run. *)
type tally = { mutable attempted : int; mutable failed : int; mutable errors : string list }

let tally () = { attempted = 0; failed = 0; errors = [] }

let failure t sql msg =
  t.failed <- t.failed + 1;
  if List.length t.errors < 5 then
    t.errors <- Printf.sprintf "%s -- %s" msg sql :: t.errors

let error_notes t = List.rev_map (fun e -> "FAILED " ^ e) t.errors

let rss_rounds = 2

(* One process of an untraced run (see {!Parts}): set up, one warm-up
   round, then whole rounds until [seconds] have been spent in
   [run_query]. *)
let part spec ~seed ~part ~seconds =
  let cur = ref None and setups = ref [] in
  for _ = 1 to spec.setups do
    (* drop the previous federation before building the next *)
    cur := None;
    Gc.compact ();
    let t0 = Trace.now_ns () in
    let fed = spec.build None in
    setups := (Trace.ms_between t0 (Trace.now_ns ()) /. 1000.) :: !setups;
    cur := Some fed
  done;
  let fed = Option.get !cur in
  let rep = Pipeline.replica ~verify:spec.verify fed.med in
  let next_round = spec.prepare fed in
  let rng = Random.State.make [| seed; part |] in
  let t = tally () in
  let exec (q : Refeval.query) =
    t.attempted <- t.attempted + 1;
    let t0 = Trace.now_ns () in
    let outcome =
      match Pipeline.untraced rep q.Refeval.sql with
      | answer -> Ok answer
      | exception e -> Error (Printexc.to_string e)
    in
    let ms = Trace.ms_between t0 (Trace.now_ns ()) in
    match Result.bind outcome (fun a -> Result.map (fun () -> a) (Check.answer q a)) with
    | Ok a -> (ms, Some a)
    | Error e -> failure t q.Refeval.sql e; (ms, None)
  in
  List.iter (fun q -> ignore (exec q)) (next_round rng);
  let lats = ref [] and sims = ref [] and busy_ms = ref 0. in
  let rounds = ref 0 and rss_mb = ref nan in
  while !busy_ms < seconds *. 1000. || !rounds < rss_rounds do
    List.iter
      (fun q ->
        let ms, answer = exec q in
        busy_ms := !busy_ms +. ms;
        match answer with
        | Some (a : Disco_mediator.Mediator.answer) ->
          lats := ms :: !lats;
          sims := a.Disco_mediator.Mediator.measured.Disco_exec.Run.total_time :: !sims
        | None -> ())
      (next_round rng);
    incr rounds;
    if !rounds = rss_rounds then rss_mb := Report.peak_rss_mb "self"
  done;
  { Parts.setups = !setups;
    lats = !lats;
    busy_s = !busy_ms /. 1000.;
    sims = !sims;
    rss_mb = !rss_mb;
    attempted = t.attempted;
    failed = t.failed;
    problems = List.rev t.errors;
    run_ok = true }

(* One query on both replicas, traced on [a], untraced on [b]. *)
let twin_query tr t acc ~qid ~(a : fed) ~ra ~rb (q : Refeval.query) =
  t.attempted <- t.attempted + 1;
  let run_b () =
    let t0 = Trace.now_ns () in
    let ans = Pipeline.untraced rb q.Refeval.sql in
    (ans, Trace.ms_between t0 (Trace.now_ns ()))
  in
  let run_a () =
    let before = Pipeline.counters a.med a.wrappers in
    Trace.set_query tr qid;
    let t0 = Trace.now_ns () in
    let ans = Pipeline.traced tr ra q.Refeval.sql in
    let ms = Trace.ms_between t0 (Trace.now_ns ()) in
    Trace.set_query tr (-1);
    (ans, ms, Pipeline.deltas before (Pipeline.counters a.med a.wrappers))
  in
  match
    if qid land 1 = 0 then
      let ra = run_a () in
      (ra, run_b ())
    else
      let rb = run_b () in
      (run_a (), rb)
  with
  | (ans_a, traced_ms, deltas), (ans_b, untraced_ms) ->
    if not (Pipeline.same_answer ans_a ans_b) then begin
      failure t q.Refeval.sql "traced answer differs from run_query's";
      None
    end
    else begin
      match Check.answer q ans_a with
      | Error e -> failure t q.Refeval.sql e; None
      | Ok () ->
        if qid >= 0 then
          Layers.add_query acc ~deltas ~answer:ans_a ~traced_ms ~untraced_ms;
        Some ans_a
    end
  | exception e ->
    Trace.set_query tr (-1);
    failure t q.Refeval.sql (Printexc.to_string e);
    None

let traced spec ~title ~seed ~seconds ~trace_path =
  let tr = Trace.create () in
  let a = spec.build (Some tr) in
  let b = spec.build (Some tr) in
  let ra = Pipeline.replica ~verify:spec.verify a.med in
  let rb = Pipeline.replica ~verify:spec.verify b.med in
  let next_round = spec.prepare a in
  let rng = Random.State.make [| seed |] in
  let t = tally () and acc = Layers.create () in
  List.iter (fun q -> ignore (twin_query tr t acc ~qid:(-1) ~a ~ra ~rb q)) (next_round rng);
  let qid = ref 0 and sims = ref [] in
  let start = Trace.now_ns () in
  while Trace.ms_between start (Trace.now_ns ()) < seconds *. 1000. do
    List.iter
      (fun q ->
        (match twin_query tr t acc ~qid:!qid ~a ~ra ~rb q with
         | Some ans ->
           sims := ans.Disco_mediator.Mediator.measured.Disco_exec.Run.total_time :: !sims
         | None -> ());
        incr qid)
      (next_round rng)
  done;
  Trace.write tr trace_path;
  let metrics =
    Layers.metrics acc tr
      ~generate_s:(Report.mean [ a.generate_s; b.generate_s ])
      ~register_s:(Report.mean [ a.register_s; b.register_s ])
  in
  Report.emit ~title
    ~notes:
      ([ Printf.sprintf "%d traced queries; spans in %s" acc.Layers.queries trace_path;
         Printf.sprintf
           "plan_sim_ms %.4f on both the traced and the run_query replica \
            (answers and simulated costs compared bit for bit per query)"
           (Report.mean !sims) ]
      @ error_notes t)
    ~correct:(t.failed = 0) ~attempted:t.attempted ~failed:t.failed metrics
