(* The in-process workloads: how one federation is set up, and how each
   round of queries is drawn from the seeded generator with its expected
   answers. *)

open Disco_core
open Disco_wrapper
open Disco_mediator

(* One set-up federation. *)
type fed = {
  med : Mediator.t;
  wrappers : Wrapper.t list;
  generate_s : float;  (* data generation *)
  register_s : float;  (* Mediator.register of every wrapper *)
}

type spec = {
  build : Trace.t option -> fed;  (* with a trace, set-up is recorded as spans *)
  setups : int;  (* set-ups per untraced part; set-up time is the median *)
  verify : bool;
  prepare : fed -> Random.State.t -> Refeval.query list;
      (* builds the reference's structures once; each call of the result
         draws one round *)
}

let federation ?tr ~create ~generate () =
  let timed name f =
    let t0 = Trace.now_ns () in
    let v = match tr with Some tr -> Trace.span tr name f | None -> f () in
    (v, Trace.ms_between t0 (Trace.now_ns ()) /. 1000.)
  in
  let wrappers, generate_s = timed "setup.generate" generate in
  let med = create () in
  let (), register_s =
    timed "setup.register" (fun () -> List.iter (Mediator.register med) wrappers)
  in
  { med; wrappers; generate_s; register_s }

let find_table wrappers name =
  let rec go = function
    | [] -> invalid_arg ("no table " ^ name)
    | (w : Wrapper.t) :: rest ->
      (match List.assoc_opt name w.Wrapper.tables with Some t -> t | None -> go rest)
  in
  go wrappers

(* --- wide-adhoc ----------------------------------------------------------------

   A 50-source synthetic federation. Each round runs chain-50 and star-50
   (above the 12-relation threshold: greedy search with bounded exact
   improvement) and a 10-relation random-edges graph (exact DPccp). Every
   fourth relation carries a [v > c] selection whose constant is drawn per
   query, so each query prices candidates the plan cache has not seen.

   Every query must return rows, so that the check can catch a lost one.
   On 200 rows per relation that shapes two of the graphs: star-50's hub
   references every satellite ([r0.fk = ri.id]; the other way round, an
   [r0.id] would need a referencing row in each of 49 satellites), and the
   random graph is a spanning tree plus one [grp] edge (each [grp] edge
   keeps about 1/32 of the join, and two leave it empty). The constants of
   a query are drawn again until its reference answer is non-empty. *)

let wide_sources = 50

let random_extra_edges = 1

(* join graphs as (a, b, kind) edges, [`Fk] meaning [rb.fk = ra.id] *)
let wide_graphs =
  [ (Demo.synthetic_edges ~shape:Demo.Chain ~n:wide_sources ~seed:42, wide_sources);
    (List.init (wide_sources - 1) (fun i -> (i + 1, 0, `Fk)), wide_sources);
    (Demo.synthetic_edges ~shape:(Demo.Random_edges random_extra_edges) ~n:10 ~seed:42, 10) ]

let wide_sql ~edges ~n ~sels =
  let froms = String.concat ", " (List.init n (fun i -> Printf.sprintf "Rel%d r%d" i i)) in
  let joins =
    List.map
      (fun (a, b, kind) ->
        match kind with
        | `Fk -> Printf.sprintf "r%d.fk = r%d.id" b a
        | `Grp -> Printf.sprintf "r%d.grp = r%d.grp" a b)
      edges
  in
  let selects = List.map (fun (i, c) -> Printf.sprintf "r%d.v > %d" i c) sels in
  Printf.sprintf "select r0.id from %s where %s" froms
    (String.concat " and " (joins @ selects))

let wide =
  { build =
      (fun tr ->
        federation ?tr
          ~create:(fun () -> Mediator.create ~domains:1 ())
          ~generate:(fun () -> Demo.synthetic ~n:wide_sources ())
          ());
    setups = 7;
    verify = true;
    prepare =
      (fun fed rng ->
        let tables =
          Array.init wide_sources (fun i ->
              find_table fed.wrappers (Printf.sprintf "Rel%d" i))
        in
        List.map
          (fun (edges, n) ->
            let rec draw attempt =
              let sels =
                List.filter_map
                  (fun i ->
                    if i mod 4 = 2 then Some (i, Random.State.int rng 500) else None)
                  (List.init n Fun.id)
              in
              match Refeval.wide_r0_ids ~tables ~edges ~sels with
              | [] when attempt < 1000 -> draw (attempt + 1)
              | [] -> failwith "wide-adhoc: no constants give a non-empty answer"
              | expected ->
                { Refeval.sql = wide_sql ~edges ~n ~sels;
                  cols = [ "r0.id" ];
                  order = [];
                  expected }
            in
            draw 1)
          wide_graphs) }

(* --- oo7-feedback --------------------------------------------------------------

   The OO7 database at the paper's scale under the §4.3 feedback loop
   (adjust factors plus cardinality feedback). A round: two exact-match
   lookups, two id ranges and two buildDate ranges (index scans over seeded
   windows whose widths sweep with the round, as in Fig 12), two
   AtomicPart-CompositePart path joins, the AtomicPart-Connection path
   join, and a full-scan aggregate. Six of the ten queries take tens of
   milliseconds, so the median latency falls among them, and twice as many
   of them as the heavy queries give it more samples to be steady on. *)

let oo7_config = Disco_oo7.Oo7.paper_config

let oo7 =
  { build =
      (fun tr ->
        federation ?tr
          ~create:(fun () ->
            Mediator.create ~domains:1
              ~history_mode:(History.Adjust { smoothing = 0.5 })
              ~stats_mode:(Mediator.Stats_feedback History.default_feedback)
              ())
          ~generate:(fun () -> [ Disco_oo7.Oo7.make_source ~config:oo7_config () ])
          ());
    setups = 1;
    verify = true;
    prepare =
      (fun fed ->
        let r = Refeval.oo7_of (find_table fed.wrappers) in
        let n = oo7_config.Disco_oo7.Oo7.atomic_parts in
        let round = ref 0 in
        fun rng ->
          let int lo hi = lo + Random.State.int rng (hi - lo) in
          (* the seed places the windows; their widths (0.1 % to 2 % of the
             ids, 1 to 10 build dates, 30 % to 75 % of the x range) cycle
             with the round, so every run sees the same mix of sizes *)
          let width l k = List.nth l ((!round + k) mod List.length l) in
          let id_range k =
            let w = width [ 70; 350; 700; 1400 ] k in
            Refeval.oo7_id_range r ~lo:(int 1 (n - w)) ~width:w
          in
          let date_range k =
            let w = width [ 1; 5; 10 ] k in
            Refeval.oo7_date_range r ~lo:(int 0 (1000 - w)) ~width:w
          in
          let x_bound = width [ 30_000; 45_000; 60_000; 75_000 ] 0 in
          let queries =
            [ Refeval.oo7_exact r ~id:(int 1 (n + 1));
              Refeval.oo7_exact r ~id:(int 1 (n + 1));
              id_range 0;
              id_range 2;
              date_range 0;
              date_range 1;
              Refeval.oo7_part_join r ~lo:(int 0 995) ~width:5;
              Refeval.oo7_part_join r ~lo:(int 0 995) ~width:5;
              Refeval.oo7_connection_join r ~lo:(int 1 (n - 350)) ~width:350;
              Refeval.oo7_scan_aggregate r ~x:(x_bound + int 0 1000) ]
          in
          incr round;
          queries) }
