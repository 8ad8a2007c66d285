(* Summary statistics and the run's output: a readable table, then the one
   JSON line the run ends with. *)

let quantile xs p =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let h = p *. float_of_int (Array.length a - 1) in
    let lo = truncate h in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Geometric mean of positive values. *)
let geomean = function
  | [] -> 0.
  | xs -> exp (mean (List.map log xs))

(* Peak resident set of a process, in MB, from its /proc status (VmHWM). *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec find () =
          match input_line ic with
          | exception End_of_file -> nan
          | line ->
            (match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
             | Some kb -> float_of_int kb /. 1024.
             | None -> find ())
        in
        find ())

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

(* The readable table on standard output, then the result line, last. *)
let emit ~title ~notes ~correct ~attempted ~failed metrics =
  Printf.printf "== %s\n" title;
  List.iter (fun n -> Printf.printf "   %s\n" n) notes;
  List.iter
    (fun m -> Printf.printf "   %-30s %16.4f %s\n" m.name m.value m.unit)
    metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
              (json_number m.value) m.unit)
          metrics))
