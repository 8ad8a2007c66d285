(* An untraced run in independent parts.

   The host's speed drifts and comes in bursts of CPU steal, and how fast
   one process runs a workload can also differ from process to process by
   about ten percent, while the two halves of one process's run agree
   within a few percent (seen on oo7-feedback). So an untraced run splits
   its measured time into parts and reports the median over them: the
   throughput, median latency and peak memory of each part, so a burst
   that hits one or two parts does not move the result. A part is a fresh
   process of this executable with its own set-up and whole rounds of
   queries; it prints its raw figures as one [PART {...}] line. *)

module Json = Disco_server.Json

type t = {
  setups : float list;  (* s *)
  lats : float list;    (* ms, one per timed query *)
  busy_s : float;       (* the time the timed queries took *)
  sims : float list;    (* simulated TotalTime of each timed query's plan *)
  rss_mb : float;
  attempted : int;
  failed : int;
  problems : string list;  (* failed checks, for the readable output *)
  run_ok : bool;           (* run-level checks, e.g. server accounting *)
}

let floats l = Json.List (List.map (fun f -> Json.Float f) l)

let print p =
  print_string "PART ";
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("setups", floats p.setups);
            ("lats", floats p.lats);
            ("busy_s", Json.Float p.busy_s);
            ("sims", floats p.sims);
            ("rss_mb", Json.Float p.rss_mb);
            ("attempted", Json.Int p.attempted);
            ("failed", Json.Int p.failed);
            ("problems", Json.List (List.map (fun s -> Json.String s) p.problems));
            ("run_ok", Json.Bool p.run_ok) ]))

let of_json j =
  let field k = Option.get (Json.member k j) in
  let float = function Json.Float f -> f | Json.Int i -> float_of_int i | _ -> nan in
  let floats k = match field k with Json.List l -> List.map float l | _ -> [] in
  let int k = match field k with Json.Int i -> i | _ -> 0 in
  { setups = floats "setups";
    lats = floats "lats";
    busy_s = float (field "busy_s");
    sims = floats "sims";
    rss_mb = float (field "rss_mb");
    attempted = int "attempted";
    failed = int "failed";
    problems =
      (match field "problems" with
       | Json.List l -> List.filter_map (function Json.String s -> Some s | _ -> None) l
       | _ -> []);
    run_ok = field "run_ok" = Json.Bool true }

(* Run one child process with [args] and read the part it prints. *)
let run_child args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list (Sys.executable_name :: args) in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let prefix = "PART " in
  let n = String.length prefix in
  let rec read found =
    match input_line ic with
    | line when String.length line > n && String.sub line 0 n = prefix ->
      read (Some (of_json (Json.parse_exn (String.sub line n (String.length line - n)))))
    | _ -> read found
    | exception End_of_file -> found
  in
  let part = read None in
  close_in ic;
  match (Unix.waitpid [] pid, part) with
  | (_, Unix.WEXITED 0), Some p -> p
  | _ -> failwith ("benchmark part failed: " ^ String.concat " " args)

let run ~count ~args = List.init count (fun i -> run_child (args (i + 1)))

(* The end-to-end metrics over the parts. *)
let emit ~title ~notes parts =
  let median_of f = Report.median (List.map f parts) in
  let lats = List.concat_map (fun p -> p.lats) parts in
  let n = List.length lats in
  let p90 =
    if n >= 100 then
      Printf.sprintf "latency_p90_ms %.4f ms (%d queries)" (Report.quantile lats 0.9) n
    else Printf.sprintf "latency_p90_ms not reported: %d queries (< 100)" n
  in
  let attempted = List.fold_left (fun a p -> a + p.attempted) 0 parts in
  let failed = List.fold_left (fun a p -> a + p.failed) 0 parts in
  Report.emit ~title
    ~notes:
      ((Printf.sprintf "%d parts of %d timed queries in all" (List.length parts) n :: p90 :: notes)
      @ List.concat_map (fun p -> List.map (fun e -> "FAILED " ^ e) p.problems) parts)
    ~correct:(failed = 0 && List.for_all (fun p -> p.run_ok) parts)
    ~attempted ~failed
    [ Report.metric "setup_s" "s" (Report.median (List.concat_map (fun p -> p.setups) parts));
      Report.metric "throughput_qps" "1/s"
        (median_of (fun p -> float_of_int (List.length p.lats) /. p.busy_s));
      Report.metric "latency_p50_ms" "ms" (median_of (fun p -> Report.median p.lats));
      Report.metric "plan_sim_ms" "ms" (Report.mean (List.concat_map (fun p -> p.sims) parts));
      Report.metric "peak_rss_mb" "MB" (median_of (fun p -> p.rss_mb)) ]
