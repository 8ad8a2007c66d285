(* medbench: the mediator benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--disco PATH]

   Workloads: wide-adhoc, oo7-feedback, serve-demo (see README.md). With
   --trace 0 the run prints the end-to-end metrics, measured in one or
   more child processes of this executable (--part I, see Parts); with
   --trace 1 the per-layer metrics of a traced run, whose spans it writes
   under medbench/out/. The last line of standard output is the result as
   one JSON object. *)

let usage =
  "main.exe --workload wide-adhoc|oo7-feedback|serve-demo --seed N --seconds S \
   --trace 0|1 [--disco PATH]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
  let disco = ref "_build/default/bin/disco.exe" and out = ref "medbench/out" in
  let part = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer run (1)");
      ("--disco", Arg.Set_string disco, "PATH the disco executable (serve-demo)");
      ("--out", Arg.Set_string out, "DIR where traces and sockets go");
      ("--part", Arg.Set_int part, "I run part I of an untraced run (internal)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !trace <> 0 && !trace <> 1 then raise (Arg.Bad "--trace takes 0 or 1");
  if not (List.mem !workload [ "wide-adhoc"; "oo7-feedback"; "serve-demo" ]) then begin
    prerr_endline ("unknown workload " ^ !workload ^ "\n" ^ usage);
    exit 2
  end;
  if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
  let title = Printf.sprintf "%s seed=%d seconds=%g trace=%d" !workload !seed !seconds !trace in
  let seed = !seed and seconds = !seconds in
  let spec = if !workload = "wide-adhoc" then Workloads.wide else Workloads.oo7 in
  (* an untraced run is five parts, each a fresh process (see Parts) *)
  let count = 5 in
  if !part > 0 then
    Parts.print
      (if !workload = "serve-demo" then Serve.part ~disco:!disco ~seed ~seconds ~out:!out
       else Inproc.part spec ~seed ~part:!part ~seconds)
  else if !trace = 0 then begin
    let args i =
      [ "--workload"; !workload; "--seed"; string_of_int seed;
        "--seconds"; Printf.sprintf "%.17g" (seconds /. float_of_int count);
        "--trace"; "0"; "--part"; string_of_int i; "--disco"; !disco; "--out"; !out ]
    in
    let notes =
      if !workload = "serve-demo" then
        [ Printf.sprintf "%d clients per server; server accounting checked per part"
            Serve.clients ]
      else []
    in
    Parts.emit ~title ~notes (Parts.run ~count ~args)
  end
  else begin
    let trace_path =
      Filename.concat !out (Printf.sprintf "trace-%s-%d.jsonl" !workload seed)
    in
    if !workload = "serve-demo" then
      Serve.traced ~title ~disco:!disco ~seed ~seconds ~out:!out ~trace_path
    else Inproc.traced spec ~title ~seed ~seconds ~trace_path
  end
