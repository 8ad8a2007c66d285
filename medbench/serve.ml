(* The serve-demo workload: `disco serve` as its own process on the
   four-source demo federation at default sizes (verification on, history
   off), driven over two connections as two tenants. Each connection
   cycles the eight-query demo corpus, closed loop.

   Set-up is the time from spawning the server to its first answered ping.
   Each untraced part (see {!Parts}) spawns [setups] servers and drives the
   last one. Each client runs one warm-up round, one
   client after the other, so the plan cache and the wrappers' buffer pools
   are warm; the timed phase then runs both clients at once, in whole
   rounds, until the run length has passed. The server's peak memory is
   read once the clients have completed [rss_rounds] timed rounds' worth of
   queries each: the server keeps a history record per submit, so its
   memory grows with the queries it has served, and a reading at the end of
   the phase would grow with its speed. Answers are checked against
   the reference after the phase, and the server's /metrics counters
   against what the clients saw.

   The traced run drives the server the same way, then replays the timed
   queries in completion order on two in-process replicas of the server's
   mediator, traced and untraced, to split the server's time into layers;
   their answers must equal the server's bit for bit. *)

open Disco_server
open Disco_wrapper
open Disco_mediator

let clients = 2

(* Server spawns per part; set-up time is the median over all parts. *)
let setups = 2

(* Timed rounds per client before the server's peak memory is read. *)
let rss_rounds = 3

(* --- the server process ------------------------------------------------------ *)

let children = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !children)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | exception e -> Unix.close fd; raise e

let close c = Unix.close c.fd

let request c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

let request_json c j = Json.parse_exn (request c (Json.to_string j))

let op name = Json.Obj [ ("op", Json.String name) ]

type server = { pid : int; sock : string }

let spawn ~disco ~seed ~sock =
  let args =
    [| disco; "serve"; "--socket"; sock; "--seed"; string_of_int seed;
       "--history"; "off"; "--domains"; "1"; "--workers"; "2"; "--queue"; "64";
       "--snapshot-every"; "0" |]
  in
  let pid = Unix.create_process disco args Unix.stdin Unix.stderr Unix.stderr in
  children := pid :: !children;
  { pid; sock }

(* Connect and ping until the server answers; fails if it exits first. *)
let await_ping srv =
  let give_up = Unix.gettimeofday () +. 60. in
  let rec go () =
    (match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
     | 0, _ -> ()
     | _ -> failwith "disco serve exited during start-up");
    match connect srv.sock with
    | c ->
      let pong = request_json c (op "ping") in
      if Json.string_member "status" pong <> Some "ok" then failwith "bad ping answer";
      c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () < give_up ->
      Unix.sleepf 0.002;
      go ()
  in
  go ()

let stop srv =
  (match connect srv.sock with
   | c ->
     (try ignore (request c (Json.to_string (op "shutdown"))) with End_of_file -> ());
     close c
   | exception Unix.Unix_error _ -> Unix.kill srv.pid Sys.sigterm);
  ignore (Unix.waitpid [] srv.pid);
  children := List.filter (( <> ) srv.pid) !children;
  if Sys.file_exists srv.sock then Sys.remove srv.sock

let start ~disco ~seed ~out ~k =
  let sock = Filename.concat out (Printf.sprintf "serve-%d-%d.sock" (Unix.getpid ()) k) in
  let t0 = Trace.now_ns () in
  let srv = spawn ~disco ~seed ~sock in
  let c = await_ping srv in
  let s = Trace.ms_between t0 (Trace.now_ns ()) /. 1000. in
  close c;
  (srv, s)

(* --- the clients ---------------------------------------------------------------- *)

type record = {
  client : int;
  query : int;     (* corpus index *)
  t0 : int64;
  t1 : int64;
  line : string;   (* the raw response, decoded after the phase *)
  timed : bool;
}

(* A record with its decoded response. *)
type answer = { r : record; resp : Json.t }

let query_line ~client ~id sql =
  Json.to_string
    (Json.Obj
       [ ("op", Json.String "query");
         ("id", Json.Int id);
         ("tenant", Json.String (Printf.sprintf "tenant-%d" client));
         ("sql", Json.String sql) ])

(* One round of the corpus on one connection, starting at this client's
   offset, so the two clients are never on the same query at once. A
   query's latency ends when its whole response line has arrived; decoding
   waits until the phase is over, so the two clients, which share one
   runtime lock, do not queue behind each other's JSON parsing. *)
let round ?(on_done = ignore) c ~client ~corpus ~timed acc =
  let n = Array.length corpus in
  for k = 0 to n - 1 do
    let query = (k + (client * n / clients)) mod n in
    let t0 = Trace.now_ns () in
    let line = request c (query_line ~client ~id:(List.length !acc) corpus.(query).Refeval.sql) in
    let t1 = Trace.now_ns () in
    acc := { client; query; t0; t1; line; timed } :: !acc;
    on_done ()
  done

(* Warm-up rounds one client after the other, then the timed phase with
   both at once, which lasts at least until the peak-memory reading.
   Returns every record, the phase's wall time (ms) and the server's peak
   resident memory (MB) after [rss_rounds] timed rounds per client. *)
let drive srv ~corpus ~seconds =
  let conns = Array.init clients (fun _ -> connect srv.sock) in
  let logs = Array.init clients (fun _ -> ref []) in
  Array.iteri (fun i c -> round c ~client:i ~corpus ~timed:false logs.(i)) conns;
  let rss_at = rss_rounds * clients * Array.length corpus in
  let completed = ref 0 and rss_mb = ref nan and lock = Mutex.create () in
  let on_done () =
    Mutex.protect lock (fun () ->
        incr completed;
        if !completed = rss_at then rss_mb := Report.peak_rss_mb (string_of_int srv.pid))
  in
  let start = Trace.now_ns () in
  let deadline = Int64.add start (Int64.of_float (seconds *. 1e9)) in
  let threads =
    Array.mapi
      (fun i c ->
        Thread.create
          (fun () ->
            while
              Trace.now_ns () < deadline || Mutex.protect lock (fun () -> !completed < rss_at)
            do
              round ~on_done c ~client:i ~corpus ~timed:true logs.(i)
            done)
          ())
      conns
  in
  Array.iter Thread.join threads;
  let records = List.concat_map (fun l -> List.rev !l) (Array.to_list logs) in
  let finish =
    List.fold_left (fun m r -> if r.t1 > m then r.t1 else m) start records
  in
  Array.iter close conns;
  ( List.map (fun r -> { r; resp = Json.parse_exn r.line }) records,
    Trace.ms_between start finish,
    !rss_mb )

let latency_ms a = Trace.ms_between a.r.t0 a.r.t1

let float_field name a = Option.value ~default:nan (Json.float_member name a.resp)

(* The server's own counters against the clients' view: every query
   received and completed, none rejected or failed. *)
let accounting srv records =
  let c = connect srv.sock in
  let m = request_json c (op "metrics") in
  close c;
  let get path =
    List.fold_left
      (fun j key -> Option.bind j (Json.member key))
      (Some m) path
  in
  let int path = match get path with Some (Json.Int i) -> i | _ -> -1 in
  let sent = List.length records in
  let ok =
    List.length (List.filter (fun a -> Json.string_member "status" a.resp = Some "ok") records)
  in
  let checks =
    [ ("received", int [ "server"; "received" ], sent);
      ("completed", int [ "server"; "completed" ], ok);
      ("admission.pushed", int [ "admission"; "pushed" ], sent);
      ("admission.rejected", int [ "admission"; "rejected" ], 0);
      ("rejected_queue", int [ "server"; "rejected_queue" ], 0);
      ("rejected_deadline", int [ "server"; "rejected_deadline" ], 0);
      ("failed", int [ "server"; "failed" ], 0);
      ("in_flight", int [ "server"; "in_flight" ], 0) ]
  in
  List.filter_map
    (fun (name, got, want) ->
      if got = want then None
      else Some (Printf.sprintf "server %s = %d, clients saw %d" name got want))
    checks

let check_records t ~corpus records =
  List.iter
    (fun a ->
      t.Inproc.attempted <- t.Inproc.attempted + 1;
      let q = corpus.(a.r.query) in
      match Check.response q a.resp with
      | Ok () -> ()
      | Error e -> Inproc.failure t q.Refeval.sql e)
    records

let demo_tables ~seed = Demo.make ~seed ~sizes:Demo.default_sizes ()

let corpus_of wrappers = Array.of_list (Refeval.demo_corpus (Workloads.find_table wrappers))

(* One part of an untraced run (see {!Parts}): [setups] spawns, the last
   of which serves the part's warm-up and timed rounds. *)
let part ~disco ~seed ~seconds ~out =
  let corpus = corpus_of (demo_tables ~seed) in
  let times = ref [] in
  for k = 1 to setups - 1 do
    let srv, s = start ~disco ~seed ~out ~k in
    times := s :: !times;
    stop srv
  done;
  let srv, s = start ~disco ~seed ~out ~k:setups in
  let records, phase_ms, rss_mb = drive srv ~corpus ~seconds in
  let mismatches = accounting srv records in
  stop srv;
  let t = Inproc.tally () in
  check_records t ~corpus records;
  let timed = List.filter (fun a -> a.r.timed) records in
  { Parts.setups = s :: !times;
    lats = List.map latency_ms timed;
    busy_s = phase_ms /. 1000.;
    sims = List.map (float_field "measured_ms") timed;
    rss_mb;
    attempted = t.Inproc.attempted;
    failed = t.Inproc.failed;
    problems = mismatches @ List.rev t.Inproc.errors;
    run_ok = mismatches = [] }

(* The in-process replica of the server's mediator (`disco serve
   --history off`, default sizes). *)
let replica_fed ~tr ~seed =
  Workloads.federation ~tr
    ~create:(fun () -> Mediator.create ~domains:1 ())
    ~generate:(fun () -> demo_tables ~seed)
    ()

let traced ~title ~disco ~seed ~seconds ~out ~trace_path =
  let srv, _ = start ~disco ~seed ~out ~k:1 in
  let tr = Trace.create () in
  let a = replica_fed ~tr ~seed and b = replica_fed ~tr ~seed in
  let corpus = corpus_of a.Workloads.wrappers in
  let records, _, _ = drive srv ~corpus ~seconds in
  let mismatches = accounting srv records in
  stop srv;
  (* every server query is one operation: its answer is checked against the
     reference, and its replay against the answer *)
  let t = Inproc.tally () and replays = Inproc.tally () and acc = Layers.create () in
  check_records t ~corpus records;
  let ra = Pipeline.replica ~verify:true a.Workloads.med in
  let rb = Pipeline.replica ~verify:true b.Workloads.med in
  (* the warm-up rounds, in the order the server ran them *)
  List.iter
    (fun x ->
      ignore (Inproc.twin_query tr replays acc ~qid:(-1) ~a ~ra ~rb corpus.(x.r.query)))
    (List.filter (fun x -> not x.r.timed) records);
  let timed =
    List.sort
      (fun x y -> Int64.compare x.r.t1 y.r.t1)
      (List.filter (fun x -> x.r.timed) records)
  in
  let server = ref [] in
  List.iteri
    (fun qid x ->
      let q = corpus.(x.r.query) in
      match Inproc.twin_query tr replays acc ~qid ~a ~ra ~rb q with
      | None -> ()
      | Some ans ->
        let wall_ms = float_field "wall_ms" x in
        let same_as_server =
          (match Json.member "rows" x.resp with
           | Some (Json.List rows) ->
             List.length rows = List.length ans.Mediator.rows
             && List.for_all2
                  (fun j tu -> Disco_exec.Tuple.equal (Check.tuple_of_json j) tu)
                  rows ans.Mediator.rows
           | _ -> false)
          && Int64.equal
               (Int64.bits_of_float (float_field "measured_ms" x))
               (Int64.bits_of_float ans.Mediator.measured.Disco_exec.Run.total_time)
        in
        if not same_as_server then
          Inproc.failure replays q.Refeval.sql "in-process answer differs from the server's";
        Trace.set_query tr qid;
        Trace.span tr "server.encode" (fun () ->
            ignore
              (Json.to_string
                 (Protocol.ok_response ~id:(Json.Int qid) ~answer:ans
                    ~estimated_ms:(Disco_core.Estimator.total_time ans.Mediator.estimate)
                    ~wall_ms)));
        Trace.span tr "server.decode" (fun () -> ignore (Json.parse x.r.line));
        Trace.set_query tr (-1);
        server := (latency_ms x, wall_ms) :: !server)
    timed;
  Trace.write tr trace_path;
  let totals = Trace.totals ~keep:(fun s -> s.Trace.qid >= 0) tr in
  let n = float_of_int (max 1 (List.length !server)) in
  let wall = Report.mean (List.map snd !server) in
  let in_process_ms =
    acc.Layers.traced_ms /. float_of_int (max 1 acc.Layers.queries)
  in
  let server_layers =
    { Layers.wall_ms = wall;
      wire_ms = Report.mean (List.map (fun (lat, w) -> lat -. w) !server);
      encode_ms = Trace.total_ms totals "server.encode" /. n;
      decode_ms = Trace.total_ms totals "server.decode" /. n;
      queue_wait_ms = wall -. in_process_ms }
  in
  Report.emit ~title
    ~notes:
      ([ Printf.sprintf
           "%d timed server queries replayed in process; spans in %s"
           (List.length timed) trace_path ]
      @ mismatches @ Inproc.error_notes t @ Inproc.error_notes replays)
    ~correct:(t.Inproc.failed = 0 && replays.Inproc.failed = 0 && mismatches = [])
    ~attempted:t.Inproc.attempted
    ~failed:(min t.Inproc.attempted (t.Inproc.failed + replays.Inproc.failed))
    (Layers.metrics ~server:server_layers acc tr
       ~generate_s:(Report.mean [ a.Workloads.generate_s; b.Workloads.generate_s ])
       ~register_s:(Report.mean [ a.Workloads.register_s; b.Workloads.register_s ]))
