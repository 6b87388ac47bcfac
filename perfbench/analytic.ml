(* analytic: the TPC-H analog at SF 0.05 on the local (quillsh) path.

   One in-process session at parallelism nproc runs a closed loop that
   rotates through Q1, Q3, Q5, Q6 and E23's wide scan, with literals
   (dates, discount band, segment, region) drawn from the seed.  Every
   statement goes through Db.exec, so it is parsed, planned and compiled
   afresh: the optimizer, both compile tiers (Q6 and the wide scan bind
   stencils, Q1, Q3 and Q5 take full codegen), the exec kernels, joins,
   aggregation and morsels do the work.  The server, plan cache, txn and
   WAL do none of it.

   The session is durable, so after the read-only timed phase a fixed
   tail of single-row UPDATEs gives the write latencies and the data
   directory's growth per write, and reopening the directory without a
   clean close gives the recovery time. *)

module Db = Quill.Db
module Value = Quill_storage.Value
module Rng = Quill_util.Rng
module Tpch = Quill_workload.Tpch

let sf_of = function Report.Full -> 0.05 | Report.Small -> 0.002
let tail_of = function Report.Full -> 2000 | Report.Small -> 20
let data_seed = 42

let date y m d = Value.date_string (Value.date_of_ymd ~y ~m ~d)

let q1 cutoff =
  Printf.sprintf
    "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, \
     SUM(l_extendedprice) AS sum_base_price, \
     SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, \
     AVG(l_quantity) AS avg_qty, AVG(l_discount) AS avg_disc, COUNT(*) AS count_order \
     FROM lineitem WHERE l_shipdate <= DATE '%s' \
     GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus"
    cutoff

let q3 segment d =
  Printf.sprintf
    "SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, \
     o_orderdate, o_shippriority FROM customer, orders, lineitem \
     WHERE c_mktsegment = '%s' AND c_custkey = o_custkey AND l_orderkey = o_orderkey \
     AND o_orderdate < DATE '%s' AND l_shipdate > DATE '%s' \
     GROUP BY l_orderkey, o_orderdate, o_shippriority \
     ORDER BY revenue DESC, o_orderdate LIMIT 10"
    segment d d

let q5 region y =
  Printf.sprintf
    "SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue \
     FROM customer, orders, lineitem, supplier, nation, region \
     WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey AND l_suppkey = s_suppkey \
     AND c_nationkey = s_nationkey AND s_nationkey = n_nationkey \
     AND n_regionkey = r_regionkey AND r_name = '%s' \
     AND o_orderdate >= DATE '%s' AND o_orderdate < DATE '%s' \
     GROUP BY n_name ORDER BY revenue DESC"
    region (date y 1 1) (date (y + 1) 1 1)

let q6_where y (lo, hi) =
  Printf.sprintf
    "WHERE l_shipdate >= DATE '%s' AND l_shipdate < DATE '%s' \
     AND l_discount BETWEEN %s AND %s AND l_quantity < 24"
    (date y 1 1) (date (y + 1) 1 1) lo hi

let q6 y band = "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem " ^ q6_where y band

let wide y band =
  "SELECT l_orderkey, l_partkey, l_suppkey, l_quantity, l_extendedprice, \
   l_extendedprice * (1 - l_discount) AS disc_price, \
   l_extendedprice * (1 - l_discount) * (1 + l_tax) AS charge, \
   l_quantity * l_extendedprice AS volume, \
   CASE WHEN l_discount > 0.05 THEN 'deep' ELSE 'shallow' END AS band, \
   l_returnflag, l_linestatus, l_shipdate FROM lineitem "
  ^ q6_where y band

(* Every literal combination of each shape in the rotation: Q1, Q3, Q5,
   Q6, wide scan. *)
let shapes =
  let years = [ 1993; 1994; 1995 ] and bands = [ ("0.03", "0.05"); ("0.05", "0.07") ] in
  let each l f = List.concat_map f l in
  [| List.map q1 [ date 1998 9 2; date 1998 8 3; date 1998 7 4 ];
     each (Array.to_list Tpch.segments) (fun s ->
         List.map (q3 s) [ date 1995 3 15; date 1995 3 1 ]);
     each (Array.to_list Tpch.region_names) (fun r -> List.map (q5 r) [ 1994; 1995 ]);
     each years (fun y -> List.map (q6 y) bands);
     each years (fun y -> List.map (wide y) bands) |]
  |> Array.map Array.of_list

(* The statement stream: statement [j] has shape [j mod 5], and each
   shape walks its literal combinations in seeded random order, a fresh
   order per pass.  Every run thus covers the combinations evenly and
   only their order depends on the seed. *)
let stream ~seed =
  let rng = Rng.create ((seed * 1_000_003) + 7) in
  let order = Array.map (fun _ -> [||]) shapes and pos = Array.make (Array.length shapes) 0 in
  fun j ->
    let k = j mod Array.length shapes in
    if pos.(k) = Array.length order.(k) then begin
      order.(k) <- Array.copy shapes.(k);
      Rng.shuffle rng order.(k);
      pos.(k) <- 0
    end;
    let sql = order.(k).(pos.(k)) in
    pos.(k) <- pos.(k) + 1;
    sql

let tail_keys scale ~seed n =
  let orders = (Tpch.sizes_of_sf (sf_of scale)).Tpch.orders in
  let rng = Rng.create ((seed * 1_000_003) + 999) in
  Array.init n (fun _ -> 1 + Rng.int rng orders)

let tail_sql k =
  Printf.sprintf "UPDATE orders SET o_shippriority = o_shippriority + 1 WHERE o_orderkey = %d" k

let load_tpch scale db =
  Tpch.load (Db.catalog db) ~sf:(sf_of scale) ~seed:data_seed;
  List.iter (Db.analyze db) [ "lineitem"; "orders"; "customer" ]

let prepare scale dir =
  let d, _ = Db.open_durable dir in
  Tpch.load (Db.catalog d) ~sf:(sf_of scale) ~seed:data_seed;
  Db.checkpoint d;
  Db.close d

(* The determinism self-test compares these across seeds. *)
let stream_digest ~seed ~n = Util.digest_strings (List.init n (stream ~seed))

let setup ~tmpl ~dir =
  Util.rm_rf dir;
  Util.copy_tree tmpl dir;
  Util.time (fun () ->
      let db, _ = Db.open_durable dir in
      Db.set_parallelism db (Domain.recommended_domain_count ());
      Array.iter (fun combos -> ignore (Db.exec db combos.(0))) shapes;
      db)

let priorities db =
  let t = Db.query db ~engine:Db.Volcano "SELECT o_orderkey, o_shippriority FROM orders" in
  Util.digest_rows (Util.table_rows t)

let run ~scale ~seed ~seconds ~tmpl ~work =
  let dir = Filename.concat work "data" in
  let db, setup_s =
    Report.repeat_setup scale
      ~setup:(fun () -> setup ~tmpl ~dir)
      ~discard:(fun db -> Db.close db)
  in
  let next = stream ~seed in
  let lats = Util.Samples.create () and results = ref [] and failed = ref 0 in
  let t0 = Util.now () in
  let j = ref 0 in
  while Util.now () -. t0 < seconds do
    let sql = next !j in
    let s = Util.now () in
    (match Db.exec db sql with
    | Db.Rows t ->
        Util.Samples.add lats (Util.now () -. s);
        results := (sql, t) :: !results
    | _ -> incr failed
    | exception (Db.Error _ | Db.Aborted _) -> incr failed);
    incr j
  done;
  let elapsed = Util.now () -. t0 in
  let rss = Util.self_rss_mb () in
  (* Every statement against the Volcano engine, the reference oracle,
     after the timed phase: the loop above only keeps each result. *)
  let reference = Hashtbl.create 64 in
  let wrong =
    List.length
      (List.filter
         (fun (sql, rows) ->
           let want =
             match Hashtbl.find_opt reference sql with
             | Some w -> w
             | None ->
                 let w = Util.table_rows (Db.query db ~engine:Db.Volcano sql) in
                 Hashtbl.add reference sql w;
                 w
           in
           not (Util.rows_match (Util.table_rows rows) want))
         !results)
  in
  if wrong > 0 then Util.log "analytic: %d results differ from Volcano" wrong;
  (* The write tail, then recovery of a handle that was never closed. *)
  let keys = tail_keys scale ~seed (tail_of scale) in
  let bytes0 = Util.dir_bytes dir in
  let writes = Util.Samples.create () and tail_failed = ref 0 in
  Array.iter
    (fun k ->
      let s = Util.now () in
      match Db.exec db (tail_sql k) with
      | _ -> Util.Samples.add writes (Util.now () -. s)
      | exception (Db.Error _ | Db.Conflict _) -> incr tail_failed)
    keys;
  let grown = Util.dir_bytes dir - bytes0 in
  let want = priorities db in
  let recovered, _, recover_s = Report.recover scale dir in
  let after = priorities recovered in
  if after <> want then Util.log "analytic: recovered orders differ from acknowledged writes";
  Db.close recovered;
  let lats = Util.Samples.to_array lats in
  let acked = Array.length keys - !tail_failed in
  { Report.correct = wrong = 0 && after = want;
    attempted = !j + Array.length keys;
    failed = !failed + !tail_failed;
    metrics =
      [ ("setup_s", "s", setup_s); ("qps", "1/s", float_of_int (Array.length lats) /. elapsed) ]
      @ Report.latency ~all:lats ~reads:lats ~writes:(Util.Samples.to_array writes)
      @ [ ("rss_mb", "MiB", rss); ("recover_s", "s", recover_s);
          ("disk_bytes_per_write", "B", float_of_int grown /. float_of_int (max 1 acked)) ] }

(* The traced run sends the sample to a server started in this process
   on an in-memory copy of the data, since the workload itself has no
   server. *)
let trace ~scale ~seed ~tmpl ~work ~trace_path =
  let dur_dir = Filename.concat work "trace-durable" in
  Util.rm_rf dur_dir;
  Util.copy_tree tmpl dur_dir;
  let mem_db = Db.create () in
  load_tpch scale mem_db;
  let mem = Db.share mem_db in
  let srv =
    Quill_server.Server.start
      ~config:{ Quill_server.Server.default_config with Quill_server.Server.port = 0 }
      mem
  in
  let port = Quill_server.Server.port srv in
  let conn = Tcp.connect port in
  let next = stream ~seed in
  let n_reads = match scale with Report.Full -> 10 | Report.Small -> 5 in
  let read j = { Tcp.read = true; frames = [ Tcp.Exec (next j, [||]) ] } in
  let writes =
    Array.map
      (fun k -> { Tcp.read = false; frames = [ Tcp.Text (tail_sql k) ] })
      (tail_keys scale ~seed n_reads)
  in
  let ops = Array.append (Array.init n_reads read) writes in
  (* The write tail comes from the one session. *)
  let metrics, attempted, failed =
    Layers.run_traced
      { Layers.ops; conn; port; mem; dur_dir; writers = [| writes |]; indexes = [];
        parallelism = Domain.recommended_domain_count () }
      ~trace_path
  in
  Tcp.close conn;
  Quill_server.Server.stop srv;
  Util.rm_rf dur_dir;
  { Report.correct = failed = 0; attempted; failed; metrics }
