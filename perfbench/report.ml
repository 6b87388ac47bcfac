(* What a run reports, and the pieces every workload computes the same
   way: latency percentiles from stored samples, and set-up repeated and
   reduced to its median. *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;  (** name, unit, value *)
}

(* Workload sizes: [full] is what the benchmark measures; [small] is the
   tiny scale the self-test smokes every check at. *)
type scale = Full | Small

(* Set-up and recovery are each repeated and reduced to their median:
   at least [lo] times, and then while the repetitions so far took less
   than [budget] seconds, up to [hi] times; [taken] samples measured
   elsewhere count towards both limits.  Cheap ones thus get more
   samples. *)
let reps = function Full -> (3, 9) | Small -> (1, 1)
let budget = 6.0

let repeat ?(taken = 0) scale f =
  let lo, hi = reps scale in
  let lo = lo - taken and hi = hi - taken in
  let rec go times spent n =
    if n >= hi || (n >= lo && spent >= budget) then Array.of_list times
    else
      let dt = f () in
      go (dt :: times) (spent +. dt) (n + 1)
  in
  go [] 0.0 0

let ms a q = Util.quantile a q *. 1e3

(* p50/p99 over all requests, and per operation type.  A workload with
   no writes in its timed phase passes the latencies of its write tail
   as [writes]. *)
let latency ~all ~reads ~writes =
  [ ("p50_ms", "ms", ms all 0.5); ("p99_ms", "ms", ms all 0.99);
    ("read_p50_ms", "ms", ms reads 0.5); ("read_p99_ms", "ms", ms reads 0.99);
    ("write_p50_ms", "ms", ms writes 0.5); ("write_p99_ms", "ms", ms writes 0.99) ]

(* [repeat_setup scale ~setup ~discard] sets up repeatedly, tearing each
   environment down with [discard] before the next set-up.  Returns the
   last environment and the median set-up time. *)
let repeat_setup scale ~setup ~discard =
  let env = ref None in
  let times =
    repeat scale (fun () ->
        Option.iter
          (fun e ->
            env := None;
            discard e;
            Gc.compact ())
          !env;
        let e, dt = setup () in
        env := Some e;
        dt)
  in
  (Option.get !env, Util.median times)

let to_json r =
  let metrics =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (Util.json_float v) unit)
      r.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed (String.concat ", " metrics)

let print_table r =
  List.iter (fun (name, unit, v) -> Printf.printf "  %-32s %14.4f %s\n" name v unit) r.metrics;
  Printf.printf "  correct=%b attempted=%d failed=%d error_rate=%.6f\n%!" r.correct r.attempted
    r.failed
    (if r.attempted = 0 then 0.0 else float_of_int r.failed /. float_of_int r.attempted)

(* [recover scale dir] opens the crashed data directory [dir] with
   open_durable, first on copies of it (each closed and removed), then on
   [dir] itself.  Returns the session on [dir], its recovery report and
   the median open time. *)
let recover scale dir =
  let open_copy () =
    let copy = dir ^ ".copy" in
    Util.rm_rf copy;
    Util.copy_tree dir copy;
    let (db, _), dt = Util.time (fun () -> Quill.Db.open_durable copy) in
    Quill.Db.close db;
    Util.rm_rf copy;
    dt
  in
  let copies = repeat ~taken:1 scale open_copy in
  let (db, report), dt = Util.time (fun () -> Quill.Db.open_durable dir) in
  (db, report, Util.median (Array.append copies [| dt |]))
