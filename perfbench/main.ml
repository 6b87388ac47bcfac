(* The benchmark's entry point.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --selftest
     main.exe --prepare NAME DIR full|small      (used by the runs above)

   With --trace 0 a run sets up its workload several times (setup_s is
   the median), measures a timed phase from outside the program, checks
   every output, and prints the end-to-end metrics.  With --trace 1 it
   sets up once and replays a seeded sample of the workload's requests
   through each layer (see Layers), printing the per-layer table and the
   per-layer metrics and writing a Chrome trace-event span file.  The
   last line of standard output is the run's JSON result. *)

type workload = {
  name : string;
  prepare : Report.scale -> string -> unit;
  run : scale:Report.scale -> seed:int -> seconds:float -> tmpl:string -> work:string -> Report.result;
  trace :
    scale:Report.scale -> seed:int -> tmpl:string -> work:string -> trace_path:string ->
    Report.result;
}

let workloads =
  [ { name = "point-serve"; prepare = Point_serve.prepare; run = Point_serve.run;
      trace = Point_serve.trace };
    { name = "analytic"; prepare = Analytic.prepare; run = Analytic.run; trace = Analytic.trace };
    { name = "durable-rw"; prepare = Durable_rw.prepare; run = Durable_rw.run;
      trace = Durable_rw.trace } ]

let find name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None -> failwith ("unknown workload " ^ name)

let scale_name = function Report.Full -> "full" | Report.Small -> "small"

(* The template data directory is built by a child process, so its
   memory peak stays out of this process's rss_mb. *)
let template w scale ~work =
  let tmpl = Filename.concat work "template" in
  Util.rm_rf tmpl;
  Util.mkdir_p work;
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe [| exe; "--prepare"; w.name; tmpl; scale_name scale |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith ("preparing " ^ w.name ^ " failed"));
  tmpl

let run_one w ~scale ~seed ~seconds ~trace =
  let work = Filename.concat Util.out_dir w.name in
  let tmpl = template w scale ~work in
  let r =
    if trace then
      w.trace ~scale ~seed ~tmpl ~work
        ~trace_path:(Filename.concat Util.out_dir (w.name ^ ".trace.json"))
    else w.run ~scale ~seed ~seconds ~tmpl ~work
  in
  Util.rm_rf work;
  List.iter
    (fun (name, _, v) ->
      if not (Float.is_finite v) then failwith (Printf.sprintf "%s: metric %s is %f" w.name name v))
    r.Report.metrics;
  r

(* The benchmark's own tests: the same seed gives the same request
   streams and result digests, another seed gives different ones, and a
   tiny-scale run of every workload, timed and traced, passes all of its
   output checks. *)
let selftest () =
  let failures = ref 0 in
  let check what ok =
    Printf.printf "%-60s %s\n%!" what (if ok then "ok" else "FAILED");
    if not ok then incr failures
  in
  let small = Report.Small in
  let digests =
    [ ("point-serve", fun seed -> Point_serve.stream_digest small ~seed ~conns:2 ~n:200);
      ("analytic", fun seed -> Analytic.stream_digest ~seed ~n:50);
      ("durable-rw", fun seed -> Durable_rw.stream_digest small ~seed ~conns:2 ~n:200) ]
  in
  List.iter
    (fun (name, d) ->
      check (name ^ ": same seed, same requests and digests") (d 1 = d 1);
      check (name ^ ": another seed, other requests and digests") (d 1 <> d 2))
    digests;
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let r = run_one w ~scale:small ~seed:3 ~seconds:1.0 ~trace in
          check
            (Printf.sprintf "%s: tiny %s run passes its checks" w.name
               (if trace then "traced" else "timed"))
            (r.Report.correct && r.Report.failed = 0 && r.Report.attempted > 0))
        [ false; true ])
    workloads;
  if !failures > 0 then exit 1

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "--selftest" ] -> selftest ()
  | [ "--prepare"; name; dir; scale ] ->
      (find name).prepare (if scale = "small" then Report.Small else Report.Full) dir
  | args ->
      let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
      let rec parse = function
        | "--workload" :: v :: rest -> workload := v; parse rest
        | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
        | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
        | "--trace" :: v :: rest -> trace := v = "1"; parse rest
        | [] -> ()
        | a :: _ -> failwith ("unexpected argument " ^ a)
      in
      parse args;
      let w = find !workload in
      let r = run_one w ~scale:Report.Full ~seed:!seed ~seconds:!seconds ~trace:!trace in
      Report.print_table r;
      print_endline (Report.to_json r);
      if not r.Report.correct then exit 1
