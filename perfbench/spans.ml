(* The traced run's span recorder.  Spans are opened from the benchmark's
   own code around calls into each layer (nothing under lib/ is
   instrumented), kept in memory, and written out at the end as Chrome
   trace-event JSON — the format [Db.trace_json] exports.

   Every span of one replayed request carries the request's id; its
   parent is the request's root span ("request"), so the per-layer table
   can split each request's wall time across the layers it crossed and
   report what no layer span covers as "other".  Spans with no request
   ([req] = -1) are probes of a layer the workload's request path does
   not take on every request (connect, read-after-commit, the Volcano
   scanned-rows count, the parallelism comparison); they are reported
   but have no share. *)

type span = {
  name : string;
  req : int;
  seq : int;
  parent : int;
  start : float;
  dur : float;
}

let lock = Mutex.create ()
let spans : span list ref = ref []
let next_seq = ref 0
let on = ref true
let epoch = ref (Util.now ())

let reset () =
  Mutex.protect lock (fun () ->
      spans := [];
      next_seq := 0;
      epoch := Util.now ())

let fresh_seq () =
  Mutex.protect lock (fun () ->
      let s = !next_seq in
      incr next_seq;
      s)

(* [with_span ~req ~parent name f] runs [f ()] and records its span; the
   span's duration is returned alongside the result so callers can
   derive metrics from exactly what was recorded.  With recording off it
   still times [f] but stores nothing. *)
let record ?(req = -1) ?(parent = -1) ?seq name t0 t1 =
  if !on then begin
    let seq = match seq with Some s -> s | None -> fresh_seq () in
    Mutex.protect lock (fun () ->
        spans := { name; req; seq; parent; start = t0 -. !epoch; dur = t1 -. t0 } :: !spans)
  end

let with_span ?req ?parent ?seq name f =
  let t0 = Util.now () in
  let r = f () in
  let t1 = Util.now () in
  record ?req ?parent ?seq name t0 t1;
  (r, t1 -. t0)

let all () = Mutex.protect lock (fun () -> List.rev !spans)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Chrome trace-event JSON: "X" complete events, microsecond timestamps. *)
let to_chrome_json () =
  let b = Buffer.create 4096 in
  Buffer.add_char b '[';
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.1f,\"dur\":%.1f,\"pid\":1,\"tid\":1,\"args\":{\"req\":\"%d\",\"seq\":\"%d\",\"parent\":\"%d\"}}"
           (json_escape s.name)
           (if s.req < 0 then "probe" else "request")
           (s.start *. 1e6) (s.dur *. 1e6) s.req s.seq s.parent))
    (all ());
  Buffer.add_char b ']';
  Buffer.contents b

let write_json path =
  Out_channel.with_open_text path (fun oc -> output_string oc (to_chrome_json ()))

(* Per-layer table: count, p50 and p99 in microseconds, and the share of
   the summed request wall time each layer's spans cover.  "other" is
   the request time no layer span covers. *)
let table () =
  let all = all () in
  let roots = List.filter (fun s -> s.name = "request") all in
  let wall = List.fold_left (fun acc s -> acc +. s.dur) 0.0 roots in
  let root_seqs = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace root_seqs s.seq ()) roots;
  let groups = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun s ->
      if s.name <> "request" then begin
        if not (Hashtbl.mem groups s.name) then begin
          Hashtbl.add groups s.name (ref []);
          order := s.name :: !order
        end;
        let l = Hashtbl.find groups s.name in
        l := s :: !l
      end)
    all;
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%-24s %8s %12s %12s %8s\n" "layer" "count" "p50_us" "p99_us" "share");
  let attributed = ref 0.0 in
  List.iter
    (fun name ->
      let l = !(Hashtbl.find groups name) in
      let durs = Array.of_list (List.map (fun s -> s.dur *. 1e6) l) in
      let in_req =
        List.fold_left
          (fun acc s -> if Hashtbl.mem root_seqs s.parent then acc +. s.dur else acc)
          0.0 l
      in
      attributed := !attributed +. in_req;
      Buffer.add_string b
        (Printf.sprintf "%-24s %8d %12.1f %12.1f %8s\n" name (Array.length durs)
           (Util.quantile durs 0.5) (Util.quantile durs 0.99)
           (if in_req > 0.0 && wall > 0.0 then Printf.sprintf "%.3f" (in_req /. wall)
            else "probe")))
    (List.rev !order);
  let roots_us = Array.of_list (List.map (fun s -> s.dur *. 1e6) roots) in
  Buffer.add_string b
    (Printf.sprintf "%-24s %8s %12s %12s %8.3f\n" "other" "" "" ""
       (if wall > 0.0 then (wall -. !attributed) /. wall else 0.0));
  Buffer.add_string b
    (Printf.sprintf "%-24s %8d %12.1f %12.1f %8.3f\n" "request (wall)"
       (Array.length roots_us) (Util.quantile roots_us 0.5) (Util.quantile roots_us 0.99) 1.0);
  Buffer.contents b
