(* The traced run: a seeded sample of a workload's requests replayed
   through each layer's public functions, one span per call.

   A read is sent to the workload's server ([server.rtt]), its frames
   are re-encoded and decoded in process ([server.wire]), it runs on a
   warmed in-process session of an identically seeded store
   ([db.exec_prepared]), and then goes once more through the pipeline a
   plan-cache miss takes: [sql.parse], [plan.bind],
   [optimizer.optimize], [compile.stencil] or [compile.full] (whichever
   tier [Codegen.compile_tiered] returns) and [exec.run].  A write is
   sent to the server, parsed, and applied on an in-memory shared store
   ([txn.write]) and on a durable one whose log is not fsynced at commit
   ([wal.write]: logging only), followed by an explicit [Db.wal_sync]
   ([wal.sync]: the fsync the commit put off).  The workload's write
   streams are also replayed at once, one session each, on the
   in-memory store: conflicts and stripe waits need concurrent
   committers, which the one-at-a-time replay never has.

   Counter-based metrics are deltas of Quill's own [Metrics] counters
   taken around the calls above, which run in this process.  The same
   sample is also replayed with recording off; the ratio of the request
   rates with and without recording is the tracing overhead. *)

module Db = Quill.Db
module Value = Quill_storage.Value
module Table = Quill_storage.Table
module Schema = Quill_storage.Schema
module Catalog = Quill_storage.Catalog
module Index = Quill_storage.Index
module Metrics = Quill_obs.Metrics
module Wire = Quill_server.Wire
module Pool = Quill_parallel.Pool
module Picker = Quill_optimizer.Picker
module Codegen = Quill_compile.Codegen
module Exec_ctx = Quill_exec.Exec_ctx
module Samples = Util.Samples

type input = {
  ops : Tcp.op array;  (** the sampled requests, in stream order *)
  conn : Tcp.conn;  (** a warmed connection to the workload's server *)
  port : int;
  mem : Db.store;  (** in-memory shared store, same contents as the server's *)
  dur_dir : string;  (** durable directory, same contents as the server's *)
  writers : Tcp.op array array;
      (** write streams, one per concurrent session of the workload *)
  indexes : (string * string) list;  (** declared (table, column) indexes *)
  parallelism : int;  (** the workload's session parallelism *)
}

(* --- counters ------------------------------------------------------------ *)

let counter name = Metrics.value (Metrics.counter name)

(* [counting names f] runs [f] and adds each named counter's delta to
   [acc]. *)
let counting acc names f =
  let before = List.map counter names in
  let r = f () in
  List.iter2
    (fun name b ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt acc name) in
      Hashtbl.replace acc name (prev + counter name - b))
    names before;
  r

let cache_counters =
  [ "quill.plan_cache.hits"; "quill.plan_cache.misses"; "quill.plan_cache.repicks";
    "quill.feedback.reoptimizations"; "quill.tiering.tierups" ]

(* Kernel and fallback dispatches come from the vectorized engine, which
   the plan cache runs a statement on until it tiers up. *)
let exec_counters =
  [ "quill.exec.kernel_dispatches"; "quill.exec.fallback_dispatches"; "quill.parallel.morsels" ]

let txn_counters = [ "quill.txn.commits"; "quill.txn.conflicts"; "quill.txn.stripe_waits" ]

(* --- the cold pipeline ---------------------------------------------------- *)

(* How a replay step opens spans: [span name f] times [f] under a span,
   [mark name t0 t1] records an interval measured by the caller. *)
type spanner = {
  span : 'a. string -> (unit -> 'a) -> 'a * float;
  mark : string -> float -> float -> unit;
}

let untraced =
  { span = (fun _ f -> Util.time f); mark = (fun _ _ _ -> ()) }

type cold = {
  catalog : Catalog.t;
  reg : Index.Registry.t;
  stats : Quill_stats.Table_stats.Registry.reg;
  options : Picker.options;
}

let cold_ctx inp catalog =
  let reg = Index.Registry.create () in
  List.iter (fun (table, col) -> Index.Registry.declare reg ~table ~col) inp.indexes;
  { catalog; reg; stats = Quill_stats.Table_stats.Registry.create ();
    options = { Picker.default_options with Picker.parallelism = inp.parallelism } }

let plan cold sql params sp =
  match fst (sp.span "sql.parse" (fun () -> Quill_sql.Parser.parse sql)) with
  | Quill_sql.Ast.Select sel ->
      let env =
        Quill_plan.Binder.mk_env ~catalog:cold.catalog ~udfs:(Quill_plan.Udf.builtins ())
          ~param_types:(Array.map Value.type_of params) ()
      in
      let lplan, _ = sp.span "plan.bind" (fun () -> Quill_plan.Binder.bind_select env sel) in
      let indexed table =
        match Catalog.find cold.catalog table with
        | None -> []
        | Some t ->
            List.filter_map
              (fun col -> Result.to_option (Schema.find (Table.schema t) col))
              (Index.Registry.declared cold.reg table)
      in
      let env = Quill_optimizer.Card.make_env ~indexed ~params cold.catalog cold.stats in
      fst (sp.span "optimizer.optimize" (fun () -> Picker.optimize ~options:cold.options env lplan))
  | _ -> failwith ("not a SELECT: " ^ sql)

(* The tier is known only once the call returns, so the span is named
   after it and recorded from the measured interval. *)
let compile cold plan sp =
  let t0 = Util.now () in
  let f, tier = Codegen.compile_tiered ~indexes:cold.reg cold.catalog plan in
  let t1 = Util.now () in
  let name = match tier with Codegen.Tier_stencil -> "compile.stencil" | Codegen.Tier_full -> "compile.full" in
  sp.mark name t0 t1;
  (f, name, t1 -. t0)

let run cold f params =
  let ctx = Exec_ctx.create ~params ~indexes:cold.reg cold.catalog in
  Quill_util.Vec.length (f ctx.Exec_ctx.governor ctx.Exec_ctx.params)

(* --- the replay ----------------------------------------------------------- *)

type acc = {
  durs : (string, Samples.t) Hashtbl.t;  (** per-layer span durations, seconds *)
  counts : (string, int) Hashtbl.t;
  mutable stencil : int;
  mutable statements : int;
  mutable reads : int;
  mutable failed : int;
}

let new_acc () =
  { durs = Hashtbl.create 16; counts = Hashtbl.create 16; stencil = 0;
    statements = 0; reads = 0; failed = 0 }

let add acc name v =
  let s =
    match Hashtbl.find_opt acc.durs name with
    | Some s -> s
    | None ->
        let s = Samples.create () in
        Hashtbl.add acc.durs name s;
        s
  in
  Samples.add s v

type state = {
  inp : input;
  read_sess : Db.t;
  write_sess : Db.t;
  dur_db : Db.t;
  dur_sess : Db.t;
  cold : cold;
}

let sql_of = function Tcp.Exec (sql, _) | Tcp.Text sql -> sql
let params_of = function Tcp.Exec (_, p) -> p | Tcp.Text _ -> [||]

let replay_read st acc sp frame =
  let span = sp.span in
  let sql = sql_of frame and params = params_of frame in
  let resp, rtt = span "server.rtt" (fun () -> Tcp.send st.inp.conn frame) in
  (match resp with Wire.Err _ -> acc.failed <- acc.failed + 1 | _ -> ());
  let id = Hashtbl.find st.inp.conn.Tcp.ids sql in
  let _, wire =
    span "server.wire" (fun () ->
        ignore (Wire.decode_request (Wire.encode_request (Wire.Execute (id, params))));
        ignore (Wire.decode_response (Wire.encode_response resp)))
  in
  let _, ep =
    counting acc.counts (cache_counters @ exec_counters) (fun () ->
        span "db.exec_prepared" (fun () -> Db.exec_prepared st.read_sess ~params sql))
  in
  add acc "server.rtt" rtt;
  add acc "server.wire" wire;
  add acc "db.exec_prepared" ep;
  add acc "server.residual" (rtt -. ep);
  let recording =
    { sp with span = (fun name f -> let r, d = span name f in add acc name d; (r, d)) }
  in
  let p = plan st.cold sql params recording in
  let f, tier, cdt = compile st.cold p sp in
  add acc tier cdt;
  if tier = "compile.stencil" then acc.stencil <- acc.stencil + 1;
  let _, dt =
    counting acc.counts exec_counters (fun () -> span "exec.run" (fun () -> run st.cold f params))
  in
  add acc "exec.run" dt;
  acc.statements <- acc.statements + 1;
  acc.reads <- acc.reads + 1

let exec_all db frames =
  List.iter (fun f -> ignore (Db.exec db (sql_of f))) frames

let rec retry db frames n =
  match exec_all db frames with
  | () -> true
  | exception Db.Conflict _ ->
      if Db.in_transaction db then Db.rollback_transaction db;
      n < Tcp.max_attempts && retry db frames (n + 1)

(* [wal.log] is the durable write's time less the in-memory one's; the
   two run in alternating order from one request to the next, so neither
   always runs first. *)
let replay_write st acc sp ~i (op : Tcp.op) =
  let span = sp.span in
  let (_, ok), _ = span "server.rtt" (fun () -> Tcp.run_op st.inp.conn op) in
  if not ok then acc.failed <- acc.failed + 1;
  List.iter
    (fun f ->
      let _, d = span "sql.parse" (fun () -> Quill_sql.Parser.parse (sql_of f)) in
      add acc "sql.parse" d)
    op.frames;
  let guarded db () = ignore (retry db op.frames 1) in
  let mem () = snd (span "txn.write" (guarded st.write_sess))
  and dur () = snd (span "wal.write" (guarded st.dur_sess)) in
  let tw, dw =
    if i mod 2 = 0 then let tw = mem () in (tw, dur ()) else let dw = dur () in (mem (), dw)
  in
  let _, sync = span "wal.sync" (fun () -> Db.wal_sync st.dur_db) in
  add acc "txn.write" tw;
  add acc "wal.log" (dw -. tw);
  add acc "wal.sync" sync;
  acc.statements <- acc.statements + 1

(* The write streams replayed at once, one domain and session each, on
   the in-memory store; a conflicted write is retried as the client
   retries it.  Returns the txn counters' deltas and the writes that
   still failed. *)
let concurrent_writes st =
  let counts = Hashtbl.create 4 in
  let failed =
    counting counts txn_counters (fun () ->
        Array.map
          (fun ops ->
            let sess = Db.session st.inp.mem in
            Domain.spawn (fun () ->
                Array.fold_left
                  (fun n (op : Tcp.op) -> if retry sess op.frames 1 then n else n + 1)
                  0 ops))
          st.inp.writers
        |> Array.fold_left (fun n d -> n + Domain.join d) 0)
  in
  (counts, failed)

let pass st ~traced =
  Spans.on := traced;
  let acc = new_acc () in
  let gc0 = (Gc.quick_stat ()).Gc.major_collections in
  let t0 = Util.now () in
  Array.iteri
    (fun i (op : Tcp.op) ->
      let root = if traced then Spans.fresh_seq () else -1 in
      let sp =
        { span = (fun name f -> Spans.with_span ~req:i ~parent:root name f);
          mark = (fun name t0 t1 -> Spans.record ~req:i ~parent:root name t0 t1) }
      in
      ignore
        (Spans.with_span ~req:i ~seq:root "request" (fun () ->
             if op.read then replay_read st acc sp (List.hd op.frames)
             else replay_write st acc sp ~i op)))
    st.inp.ops;
  let elapsed = Util.now () -. t0 in
  let majors = (Gc.quick_stat ()).Gc.major_collections - gc0 in
  (acc, elapsed, majors)

(* --- probes ---------------------------------------------------------------- *)

let first_read inp =
  match Array.to_list inp.ops |> List.find_opt (fun (o : Tcp.op) -> o.read) with
  | Some o -> List.hd o.frames
  | None -> failwith "traced sample has no read"

let first_single_write inp =
  match
    Array.to_list inp.ops
    |> List.find_opt (fun (o : Tcp.op) -> (not o.read) && List.length o.frames = 1)
  with
  | Some o -> o.frames
  | None -> failwith "traced sample has no single-statement write"

let probes st =
  let probe name f = snd (Spans.with_span name f) in
  let r0 = first_read st.inp in
  let sql0 = sql_of r0 and params0 = params_of r0 in
  (* A fresh connection: connect, prepare, first execute (which pays
     the new session's per-session caches). *)
  let connect =
    Array.init 3 (fun _ ->
        probe "server.connect" (fun () ->
            let c = Tcp.connect st.inp.port in
            Tcp.prepare c sql0;
            ignore (Tcp.send c r0);
            Tcp.close c))
  in
  (* A warmed session's next two reads after another session commits. *)
  let w = first_single_write st.inp in
  let after_commit =
    Array.init 3 (fun _ ->
        ignore (Db.exec_prepared st.read_sess ~params:params0 sql0);
        exec_all st.write_sess w;
        probe "db.read_after_commit" (fun () ->
            ignore (Db.exec_prepared st.read_sess ~params:params0 sql0);
            ignore (Db.exec_prepared st.read_sess ~params:params0 sql0)))
  in
  (* The same compiled plans run serially and at nproc. *)
  let distinct =
    Array.to_list st.inp.ops
    |> List.filter_map (fun (o : Tcp.op) -> if o.read then Some (List.hd o.frames) else None)
    |> List.sort_uniq (fun a b -> compare (sql_of a) (sql_of b))
    |> List.filteri (fun i _ -> i < 5)
  in
  let nproc = Domain.recommended_domain_count () in
  let timed_at par name =
    Pool.set_parallelism par;
    List.fold_left
      (fun acc fr ->
        let params = params_of fr in
        let p = plan st.cold (sql_of fr) params untraced in
        let f, _ = Codegen.compile_tiered ~indexes:st.cold.reg st.cold.catalog p in
        ignore (run st.cold f params);
        acc +. Util.median (Array.init 3 (fun _ -> probe name (fun () -> run st.cold f params))))
      0.0 distinct
  in
  (* Rows scanned per row returned, counted by the Volcano engine (the
     only engine that counts scanned rows) on the same plans. *)
  let scanned = ref 0 and out = ref 0 in
  List.iter
    (fun fr ->
      let params = params_of fr in
      let p = plan st.cold (sql_of fr) params untraced in
      let ctx = Exec_ctx.create ~params ~indexes:st.cold.reg st.cold.catalog in
      let before = counter "quill.exec.rows_scanned" in
      let rows, _ = Spans.with_span "exec.volcano" (fun () -> Quill_exec.Volcano.run ctx p) in
      scanned := !scanned + counter "quill.exec.rows_scanned" - before;
      out := !out + Array.length rows)
    distinct;
  let serial = timed_at 1 "exec.run.p1" in
  let parallel = timed_at nproc "exec.run.pN" in
  Pool.set_parallelism st.inp.parallelism;
  ( Util.median connect,
    Util.median after_commit,
    serial /. parallel,
    float_of_int !scanned /. float_of_int (max 1 !out) )

(* --- entry point ------------------------------------------------------------ *)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Runs the untraced and traced replays and the probes; returns the
   per-layer metrics as (name, unit, value), writes the span file to
   [trace_path] and prints the per-layer table. *)
let run_traced inp ~trace_path =
  Pool.set_parallelism inp.parallelism;
  let read_sess = Db.session inp.mem and write_sess = Db.session inp.mem in
  let dur_root, _ = Db.open_durable inp.dur_dir in
  Db.set_sync_policy dur_root Db.Never;
  let dur_store = Db.share dur_root in
  let st =
    { inp; read_sess; write_sess; dur_db = dur_root; dur_sess = Db.session dur_store;
      cold = cold_ctx inp (Db.catalog read_sess) }
  in
  (* Warm every read shape on the local session and the cold pipeline
     (statistics are collected on first use). *)
  Array.iter
    (fun (o : Tcp.op) ->
      if o.read then begin
        let fr = List.hd o.frames in
        Tcp.prepare inp.conn (sql_of fr);
        ignore (Db.exec_prepared read_sess ~params:(params_of fr) (sql_of fr));
        ignore (plan st.cold (sql_of fr) (params_of fr) untraced)
      end)
    inp.ops;
  (* Untraced passes before and after the traced one, so warm-up left
     over from the first pass does not count as tracing overhead. *)
  let _, untraced1, _ = pass st ~traced:false in
  Spans.reset ();
  let acc, traced, majors = pass st ~traced:true in
  let connect_s, after_commit_s, speedup, scanned_per_row = probes st in
  let txn_counts, txn_failed =
    fst (Spans.with_span "txn.concurrent" (fun () -> concurrent_writes st))
  in
  let _, untraced2, _ = pass st ~traced:false in
  let untraced = (untraced1 +. untraced2) /. 2.0 in
  (* Recovery of the durable store the writes went to, without a clean
     close: the handle is abandoned as a crashed process would leave it. *)
  let (_, report), recover_s = Util.time (fun () -> Db.open_durable inp.dur_dir) in
  Spans.write_json trace_path;
  print_string (Spans.table ());
  Printf.printf "tracing overhead: traced/untraced request rate = %.3f\n"
    (untraced /. traced);
  let med name scale =
    match Hashtbl.find_opt acc.durs name with
    | Some s when Samples.length s > 0 -> Util.median (Samples.to_array s) *. scale
    | _ -> 0.0
  in
  let c name = float_of_int (Option.value ~default:0 (Hashtbl.find_opt acc.counts name)) in
  let reads = float_of_int acc.reads and stmts = float_of_int acc.statements in
  let per_kop v = ratio (1000.0 *. v) reads in
  let hits = c "quill.plan_cache.hits" and misses = c "quill.plan_cache.misses" in
  let tc name = float_of_int (Option.value ~default:0 (Hashtbl.find_opt txn_counts name)) in
  let commits = tc "quill.txn.commits" and conflicts = tc "quill.txn.conflicts" in
  let kernel = c "quill.exec.kernel_dispatches" in
  let n_ops = float_of_int (Array.length inp.ops) in
  ( [ ("server.rtt_us", "us", med "server.rtt" 1e6);
      ("server.residual_us", "us", med "server.residual" 1e6);
      ("server.wire_us", "us", med "server.wire" 1e6);
      ("server.connect_ms", "ms", connect_s *. 1e3);
      ("db.exec_prepared_us", "us", med "db.exec_prepared" 1e6);
      ("db.read_after_commit_ms", "ms", after_commit_s *. 1e3);
      ("adaptive.hit_ratio", "ratio", ratio hits (hits +. misses));
      ("adaptive.replans_per_kop", "1/kop",
       per_kop (misses +. c "quill.plan_cache.repicks" +. c "quill.feedback.reoptimizations"));
      ("adaptive.tierups_per_kop", "1/kop", per_kop (c "quill.tiering.tierups"));
      ("sql.parse_us", "us", med "sql.parse" 1e6);
      ("plan.bind_us", "us", med "plan.bind" 1e6);
      ("optimizer.optimize_us", "us", med "optimizer.optimize" 1e6);
      ("compile.stencil_us", "us", med "compile.stencil" 1e6);
      ("compile.full_us", "us", med "compile.full" 1e6);
      ("compile.stencil_share", "ratio", ratio (float_of_int acc.stencil) reads);
      ("exec.run_ms", "ms", med "exec.run" 1e3);
      ("exec.rows_scanned_per_row_out", "ratio", scanned_per_row);
      ("exec.kernel_share", "ratio", ratio kernel (kernel +. c "quill.exec.fallback_dispatches"));
      ("parallel.morsels_per_query", "count", ratio (c "quill.parallel.morsels") reads);
      ("parallel.speedup", "ratio", speedup);
      ("txn.write_us", "us", med "txn.write" 1e6);
      ("txn.conflict_ratio", "ratio", ratio conflicts (commits +. conflicts));
      ("txn.stripe_waits_per_commit", "ratio", ratio (tc "quill.txn.stripe_waits") commits);
      ("wal.log_us", "us", med "wal.log" 1e6);
      ("wal.sync_us", "us", med "wal.sync" 1e6);
      ("wal.replay_us_per_stmt", "us", ratio (recover_s *. 1e6) (float_of_int report.Db.replayed));
      ("gc.major_per_kop", "1/kop", ratio (1000.0 *. float_of_int majors) n_ops);
      ("trace.qps_ratio", "ratio", untraced /. traced) ],
    int_of_float stmts + Array.fold_left (fun n w -> n + Array.length w) 0 inp.writers,
    acc.failed + txn_failed )
