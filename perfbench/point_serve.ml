(* point-serve: prepared point and short range reads by k over TCP.

   The E21 traffic table (200k rows, index on k) is served by
   quillsh --serve from a data directory; nproc long-lived connections
   run a closed loop, one reply awaited per request.  About 90% of
   requests are point reads, the rest 16-key range reads.  Engine work
   per request is a few microseconds, so the wire, the connection
   thread, admission, the pool handoff and the plan-cache lookup do most
   of the work; parse, plan and compile run once per shape and
   connection, during set-up.

   The timed phase is read-only.  A fixed tail of single-row UPDATEs
   after it gives the write latencies, the data directory's growth per
   write, and, after the server is SIGKILLed, the recovery time. *)

module Db = Quill.Db
module Value = Quill_storage.Value
module Catalog = Quill_storage.Catalog
module Rng = Quill_util.Rng
module Wire = Quill_server.Wire

let rows_of = function Report.Full -> 200_000 | Report.Small -> 5_000
let tail_of = function Report.Full -> 1000 | Report.Small -> 20
let range_width = 16

let point_sql = "SELECT v, grp FROM traffic WHERE k = $1"
let range_sql = "SELECT k, v, grp FROM traffic WHERE k BETWEEN $1 AND $2"

(* The request stream of connection [i]: a function of the seed only. *)
let stream ~rows ~seed i =
  let rng = Rng.create ((seed * 1_000_003) + i) in
  fun _j ->
    let frame =
      if Rng.int rng 10 < 9 then Tcp.Exec (point_sql, [| Value.Int (Rng.int rng rows) |])
      else
        let lo = Rng.int rng rows in
        Tcp.Exec (range_sql, [| Value.Int lo; Value.Int (lo + range_width - 1) |])
    in
    { Tcp.read = true; frames = [ frame ] }

let tail_keys ~rows ~seed n =
  let rng = Rng.create ((seed * 1_000_003) + 999) in
  Array.init n (fun _ -> Rng.int rng rows)

let tail_op k =
  { Tcp.read = false;
    frames = [ Tcp.Text (Printf.sprintf "UPDATE traffic SET v = v + 1 WHERE k = %d" k) ] }

(* The template data directory: the table Bench_traffic.build_store
   generates, its index on k, checkpointed into a snapshot. *)
let prepare scale dir =
  let db, _ = Bench_traffic.build_store ~rows:(rows_of scale) in
  let d, _ = Db.open_durable dir in
  Catalog.add (Db.catalog d) (Catalog.find_exn (Db.catalog db) "traffic");
  ignore (Db.exec d "CREATE INDEX ON traffic (k)");
  Db.checkpoint d;
  Db.close d

(* --- the reference ---------------------------------------------------------- *)

(* Every reply is checked against the rows of one Volcano scan of an
   identically seeded store, sorted by k; a sample of requests is also
   replayed statement by statement through the Volcano engine. *)
type oracle = { db : Db.t; keys : int array; rows : Value.t array array }

let oracle scale =
  let db, _ = Bench_traffic.build_store ~rows:(rows_of scale) in
  let t = Db.query db ~engine:Db.Volcano "SELECT k, v, grp FROM traffic" in
  let rows = Array.of_list (Util.table_rows t) in
  let key r = match r.(0) with Value.Int k -> k | _ -> assert false in
  Array.stable_sort (fun a b -> compare (key a) (key b)) rows;
  { db; keys = Array.map key rows; rows }

let lower_bound keys k =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if keys.(mid) < k then lo := mid + 1 else hi := mid
  done;
  !lo

let rows_between o lo hi =
  let out = ref [] in
  let i = ref (lower_bound o.keys lo) in
  while !i < Array.length o.keys && o.keys.(!i) <= hi do
    out := o.rows.(!i) :: !out;
    incr i
  done;
  !out

let expected o = function
  | Tcp.Exec (sql, [| Value.Int k |]) when sql = point_sql ->
      Util.digest_rows (List.map (fun r -> [| r.(1); r.(2) |]) (rows_between o k k))
  | Tcp.Exec (sql, [| Value.Int lo; Value.Int hi |]) when sql = range_sql ->
      Util.digest_rows (rows_between o lo hi)
  | _ -> invalid_arg "point-serve: unknown request"

let volcano o = function
  | Tcp.Exec (sql, params) ->
      Util.digest_rows (Util.table_rows (Db.query o.db ~engine:Db.Volcano ~params sql))
  | Tcp.Text _ -> invalid_arg "point-serve: text frame"

(* Digests of the first [n] requests of each connection: the
   determinism self-test compares them across seeds. *)
let stream_digest scale ~seed ~conns ~n =
  let o = oracle scale in
  let rows = rows_of scale in
  List.init conns (fun i ->
      let next = stream ~rows ~seed i in
      List.init n (fun j ->
          let fr = List.hd (next j).Tcp.frames in
          expected o fr))
  |> List.concat |> Util.digest_strings

(* --- set-up ------------------------------------------------------------------ *)

type env = { srv : Tcp.server; conns : Tcp.conn array; dir : string }

let setup ~tmpl ~dir ~nconn =
  Util.rm_rf dir;
  Util.copy_tree tmpl dir;
  Util.time (fun () ->
      let srv = Tcp.start_server dir in
      let conns = Array.init nconn (fun _ -> Tcp.connect srv.Tcp.port) in
      Array.iter
        (fun c ->
          Tcp.prepare c point_sql;
          Tcp.prepare c range_sql;
          ignore (Tcp.send c (Tcp.Exec (point_sql, [| Value.Int 0 |])));
          ignore (Tcp.send c (Tcp.Exec (range_sql, [| Value.Int 0; Value.Int range_width |]))))
        conns;
      { srv; conns; dir })

let discard e =
  Array.iter Tcp.close e.conns;
  Tcp.kill_server e.srv;
  Util.rm_rf e.dir

(* --- the timed run ------------------------------------------------------------ *)

let run ~scale ~seed ~seconds ~tmpl ~work =
  let rows = rows_of scale in
  let nconn = Domain.recommended_domain_count () in
  let dir = Filename.concat work "data" in
  let e, setup_s =
    Report.repeat_setup scale ~discard
      ~setup:(fun () -> setup ~tmpl ~dir ~nconn)
  in
  let streams = Array.init nconn (stream ~rows ~seed) in
  let records, elapsed =
    Tcp.closed_loop e.conns
      ~next:(fun i j -> streams.(i) j)
      ~stop:(fun _ t -> t >= seconds)
  in
  (* Write tail, on one connection, after the reads. *)
  let keys = tail_keys ~rows ~seed (tail_of scale) in
  let bytes0 = Util.dir_bytes dir in
  let acked = Hashtbl.create 64 in
  let writes = Util.Samples.create () and tail_failed = ref 0 in
  Array.iter
    (fun k ->
      let (_, ok), dt = Util.time (fun () -> Tcp.run_op e.conns.(0) (tail_op k)) in
      Util.Samples.add writes dt;
      if ok then Hashtbl.replace acked k (1 + Option.value ~default:0 (Hashtbl.find_opt acked k))
      else incr tail_failed)
    keys;
  let grown = Util.dir_bytes dir - bytes0 in
  let rss = Tcp.server_rss_mb e.srv in
  Array.iter Tcp.close e.conns;
  Tcp.kill_server e.srv;
  let recovered, _, recover_s = Report.recover scale dir in
  (* Checks: every reply against the reference, a sample through Volcano,
     and every acknowledged write present after recovery. *)
  let o = oracle scale in
  let wrong = ref 0 in
  Array.iteri
    (fun i recs ->
      let next = stream ~rows ~seed i in
      List.iter
        (fun (r : Tcp.record) ->
          let fr = List.hd (next r.Tcp.idx).Tcp.frames in
          let got = Util.digest_response r.Tcp.reply in
          if r.Tcp.ok && got <> expected o fr then incr wrong;
          if r.Tcp.ok && r.Tcp.idx < 100 && got <> volcano o fr then incr wrong)
        recs)
    records;
  let after =
    Util.digest_rows
      (Util.table_rows (Db.query recovered ~engine:Db.Volcano "SELECT k, v, grp FROM traffic"))
  in
  let want =
    Util.digest_rows
      (Array.to_list o.rows
      |> List.map (fun r ->
             match (r.(0), r.(1)) with
             | Value.Int k, Value.Int v ->
                 let n = Option.value ~default:0 (Hashtbl.find_opt acked k) in
                 [| r.(0); Value.Int (v + n); r.(2) |]
             | _ -> r))
  in
  Db.close recovered;
  if after <> want then Util.log "point-serve: recovered table differs from acknowledged writes";
  if !wrong > 0 then Util.log "point-serve: %d replies differ from the reference" !wrong;
  let all = List.concat (Array.to_list records) in
  let lats = Array.of_list (List.map (fun (r : Tcp.record) -> r.Tcp.lat) all) in
  let failed = List.length (List.filter (fun (r : Tcp.record) -> not r.Tcp.ok) all) in
  let n_writes = Array.length keys in
  { Report.correct = !wrong = 0 && after = want;
    attempted = Array.length lats + n_writes;
    failed = failed + !tail_failed;
    metrics =
      [ ("setup_s", "s", setup_s);
        ("qps", "1/s", float_of_int (Array.length lats) /. elapsed) ]
      @ Report.latency ~all:lats ~reads:lats ~writes:(Util.Samples.to_array writes)
      @ [ ("rss_mb", "MiB", rss);
          ("recover_s", "s", recover_s);
          ("disk_bytes_per_write", "B", float_of_int grown /. float_of_int (max 1 (Hashtbl.fold (fun _ n acc -> acc + n) acked 0))) ] }

(* --- the traced run ------------------------------------------------------------- *)

let trace ~scale ~seed ~tmpl ~work ~trace_path =
  let rows = rows_of scale in
  let dir = Filename.concat work "data" in
  let e, _ = setup ~tmpl ~dir ~nconn:1 in
  let dur_dir = Filename.concat work "trace-durable" in
  Util.rm_rf dur_dir;
  Util.copy_tree tmpl dur_dir;
  let _, mem = Bench_traffic.build_store ~rows in
  let next = stream ~rows ~seed 0 in
  let n_reads = match scale with Report.Full -> 300 | Report.Small -> 20 in
  let writes = Array.map tail_op (tail_keys ~rows ~seed (max 5 (n_reads / 10))) in
  let ops = Array.append (Array.init n_reads next) writes in
  (* The write tail comes from one connection. *)
  let metrics, attempted, failed =
    Layers.run_traced
      { Layers.ops; conn = e.conns.(0); port = e.srv.Tcp.port; mem; dur_dir;
        writers = [| writes |];
        indexes = [ ("traffic", "k") ]; parallelism = 1 }
      ~trace_path
  in
  discard e;
  Util.rm_rf dur_dir;
  { Report.correct = failed = 0; attempted; failed; metrics }
