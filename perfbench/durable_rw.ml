(* durable-rw: reads next to writes on a durable server.

   quillsh --serve runs on a data directory opened with open_durable
   (On_commit fsync) holding an indexed accounts table.  nproc
   long-lived connections each run a fixed number of operations, half
   reads and half writes as in YCSB's update-heavy core workload A
   (Cooper et al., SoCC 2010): prepared point reads by id, and writes
   split evenly between single-row autocommit UPDATEs, INSERTs and
   BEGIN / two UPDATEs / COMMIT transfers.
   Writes go as text frames with literal values (prepared DML does not
   bind parameters today), so every write is parsed.  Commit stripes,
   row-chunk merges, WAL append and fsync do the work, and every commit
   drops the other sessions' index caches, which the next read rebuilds.

   A fixed tail of concurrent writes follows the timed phase.  Growth
   per write depends on how many commits merge with a concurrent one and
   log row-image patches (some 12 KB per touched chunk) rather than SQL;
   in the mixed phase alone that share follows the timing, and on a
   2-core VM the data directory's growth per acknowledged write spread
   by 0.21 (IQR / median over five seeds).  With no reads between them,
   most tail commits merge, and growth over the timed phase and tail
   together spread by 0.04.
   Operation counts are fixed rather than the duration, so recover_s
   (the server is SIGKILLed at the end) and disk_bytes_per_write compare
   equal work across runs. *)

module Db = Quill.Db
module Value = Quill_storage.Value
module Rng = Quill_util.Rng
module Wire = Quill_server.Wire

let accounts_of = function Report.Full -> 50_000 | Report.Small -> 1_000
let ops_of = function Report.Full -> 1000 | Report.Small -> 30
let tail_of = function Report.Full -> 300 | Report.Small -> 10

let read_sql = "SELECT balance FROM accounts WHERE id = $1"
let initial_balance id = 1000 + (id * 7919 mod 1000)

(* Ids of rows a connection inserts: private to the connection. *)
let insert_id ~accounts i j = accounts + (i * 1_000_000) + j

type effect =
  | Read
  | Update of int * int  (** id, delta *)
  | Insert of int * int  (** id, balance *)
  | Transfer of int * int * int  (** from, to, amount *)

let update id d =
  Printf.sprintf "UPDATE accounts SET balance = balance %s %d WHERE id = %d"
    (if d < 0 then "-" else "+") (abs d) id

let op_of = function
  | Read -> assert false
  | Update (id, d) -> { Tcp.read = false; frames = [ Tcp.Text (update id d) ] }
  | Insert (id, b) ->
      { Tcp.read = false;
        frames = [ Tcp.Text (Printf.sprintf "INSERT INTO accounts VALUES (%d, %d)" id b) ] }
  | Transfer (a, b, amt) ->
      { Tcp.read = false;
        frames =
          [ Tcp.Text "BEGIN"; Tcp.Text (update a (-amt)); Tcp.Text (update b amt);
            Tcp.Text "COMMIT" ] }

(* Each block of six operations holds three reads, one update, one
   insert and one transfer, in seeded order, so every run has the same
   mix. *)
let mixed : [ `Read | `Update | `Insert | `Transfer ] array =
  [| `Read; `Read; `Read; `Update; `Insert; `Transfer |]

(* The write tail after the timed phase: the same writes, without the
   reads. *)
let writes_only : [ `Read | `Update | `Insert | `Transfer ] array = [| `Update; `Insert; `Transfer |]

(* Stream [base] of connection [i]: a function of the seed only.  Each
   element is the request and the effect it has once acknowledged. *)
let stream ?(block = mixed) ?(base = 0) ~accounts ~seed i =
  let rng = Rng.create ((seed * 1_000_003) + base + i) in
  let order = Array.copy block in
  fun j ->
    if j mod Array.length block = 0 then Rng.shuffle rng order;
    match order.(j mod Array.length block) with
    | `Read ->
        let id = Rng.int rng accounts in
        ({ Tcp.read = true; frames = [ Tcp.Exec (read_sql, [| Value.Int id |]) ] }, Read)
    | kind ->
        let e =
          match kind with
          | `Update -> Update (Rng.int rng accounts, Rng.int_range rng (-50) 50)
          | `Insert -> Insert (insert_id ~accounts i (base + j), Rng.int rng 1000)
          | `Read | `Transfer ->
              let a = Rng.int rng accounts in
              let b = (a + 1 + Rng.int rng (accounts - 1)) mod accounts in
              Transfer (a, b, Rng.int_range rng 1 100)
        in
        (op_of e, e)

let tail_stream = stream ~block:writes_only ~base:500_000

(* Warm-up: each shape once per connection, with no net effect on
   balances (the inserted row has balance 0 and is expected after
   recovery like any acknowledged insert). *)
let warm_effects ~accounts i =
  [ Update (i, 0); Insert (insert_id ~accounts i 999_999, 0); Transfer (i, i + 1, 0) ]

let load db accounts =
  ignore (Db.exec db "CREATE TABLE accounts (id INT NOT NULL, balance INT NOT NULL)");
  let batch = 1000 in
  let rec go lo =
    if lo < accounts then begin
      let hi = min accounts (lo + batch) in
      let values =
        List.init (hi - lo) (fun k -> Printf.sprintf "(%d, %d)" (lo + k) (initial_balance (lo + k)))
      in
      ignore (Db.exec db ("INSERT INTO accounts VALUES " ^ String.concat ", " values));
      go hi
    end
  in
  go 0;
  ignore (Db.exec db "CREATE INDEX ON accounts (id)")

let prepare scale dir =
  let d, _ = Db.open_durable dir in
  load d (accounts_of scale);
  Db.checkpoint d;
  Db.close d

(* --- expected state --------------------------------------------------------- *)

let apply tbl = function
  | Read -> ()
  | Update (id, d) -> Hashtbl.replace tbl id (Hashtbl.find tbl id + d)
  | Insert (id, b) -> Hashtbl.replace tbl id b
  | Transfer (a, b, amt) ->
      Hashtbl.replace tbl a (Hashtbl.find tbl a - amt);
      Hashtbl.replace tbl b (Hashtbl.find tbl b + amt)

let initial accounts =
  let tbl = Hashtbl.create (2 * accounts) in
  for id = 0 to accounts - 1 do
    Hashtbl.replace tbl id (initial_balance id)
  done;
  tbl

let balances db =
  let t = Db.query db ~engine:Db.Volcano "SELECT id, balance FROM accounts" in
  List.map
    (fun r -> match r with [| Value.Int id; Value.Int b |] -> (id, b) | _ -> (-1, 0))
    (Util.table_rows t)

let state_digest l = Util.digest_strings (List.map (fun (id, b) -> Printf.sprintf "%d=%d" id b) (List.sort compare l))

(* The determinism self-test compares these across seeds: the requests
   and the state they leave when all are acknowledged. *)
let stream_digest scale ~seed ~conns ~n =
  let accounts = accounts_of scale in
  let tbl = initial accounts in
  let texts =
    List.concat
      (List.init conns (fun i ->
           let next = stream ~accounts ~seed i in
           List.init n (fun j ->
               let op, e = next j in
               apply tbl e;
               String.concat ";"
                 (List.map
                    (function
                      | Tcp.Text s -> s
                      | Tcp.Exec (s, p) ->
                          s ^ String.concat "," (Array.to_list (Array.map Value.to_string p)))
                    op.Tcp.frames))))
  in
  Util.digest_strings (state_digest (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) :: texts)

(* --- set-up --------------------------------------------------------------------- *)

type env = { srv : Tcp.server; conns : Tcp.conn array; dir : string }

let setup ~accounts ~tmpl ~dir ~nconn =
  Util.rm_rf dir;
  Util.copy_tree tmpl dir;
  Util.time (fun () ->
      let srv = Tcp.start_server dir in
      let conns = Array.init nconn (fun _ -> Tcp.connect srv.Tcp.port) in
      Array.iteri
        (fun i c ->
          Tcp.prepare c read_sql;
          ignore (Tcp.send c (Tcp.Exec (read_sql, [| Value.Int i |])));
          List.iter
            (fun e ->
              match Tcp.run_op c (op_of e) with
              | _, true -> ()
              | r, false -> failwith ("durable-rw warm-up failed: " ^ Util.digest_response r))
            (warm_effects ~accounts i))
        conns;
      { srv; conns; dir })

let discard e =
  Array.iter Tcp.close e.conns;
  Tcp.kill_server e.srv;
  Util.rm_rf e.dir

(* A read must return exactly one row. *)
let one_row = function Wire.Result (_, [ _ ]) -> true | _ -> false

let run ~scale ~seed ~seconds:_ ~tmpl ~work =
  let accounts = accounts_of scale and n = ops_of scale in
  let nconn = Domain.recommended_domain_count () in
  let dir = Filename.concat work "data" in
  let e, setup_s =
    Report.repeat_setup scale ~discard
      ~setup:(fun () -> setup ~accounts ~tmpl ~dir ~nconn)
  in
  let streams = Array.init nconn (stream ~accounts ~seed) in
  let tails = Array.init nconn (tail_stream ~accounts ~seed) in
  let bytes0 = Util.dir_bytes dir in
  let records, elapsed =
    Tcp.closed_loop e.conns
      ~next:(fun i j -> fst (streams.(i) j))
      ~stop:(fun j _ -> j >= n)
  in
  let tail_records, _ =
    Tcp.closed_loop e.conns
      ~next:(fun i j -> fst (tails.(i) j))
      ~stop:(fun j _ -> j >= tail_of scale)
  in
  let grown = Util.dir_bytes dir - bytes0 in
  let rss = Tcp.server_rss_mb e.srv in
  Array.iter Tcp.close e.conns;
  Tcp.kill_server e.srv;
  let recovered, _, recover_s = Report.recover scale dir in
  (* Expected balances: the initial ones plus every acknowledged effect. *)
  let tbl = initial accounts in
  for i = 0 to nconn - 1 do
    List.iter (apply tbl) (warm_effects ~accounts i)
  done;
  let bad_reads = ref 0 and acked_writes = ref 0 in
  let account stream records =
    Array.iteri
      (fun i recs ->
        let next = stream ~accounts ~seed i in
        List.iter
          (fun (r : Tcp.record) ->
            let _, eff = next r.Tcp.idx in
            if r.Tcp.ok then begin
              if r.Tcp.read_op && not (one_row r.Tcp.reply) then incr bad_reads;
              if not r.Tcp.read_op then incr acked_writes;
              apply tbl eff
            end)
          recs)
      records
  in
  account (stream ~block:mixed ~base:0) records;
  account tail_stream tail_records;
  let want = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  let got = balances recovered in
  let sum l = List.fold_left (fun acc (_, b) -> acc + b) 0 l in
  let sum_ok =
    match Db.query recovered "SELECT SUM(balance) FROM accounts" |> Util.table_rows with
    | [ [| Value.Int s |] ] -> s = sum want
    | _ -> false
  in
  let state_ok = state_digest got = state_digest want in
  Db.close recovered;
  if !bad_reads > 0 then Util.log "durable-rw: %d reads did not return one row" !bad_reads;
  if not sum_ok then Util.log "durable-rw: SUM(balance) is not conserved";
  if not state_ok then Util.log "durable-rw: recovered balances differ from acknowledged writes";
  let all = List.concat (Array.to_list records) in
  let lat p = Array.of_list (List.filter_map (fun (r : Tcp.record) -> if p r then Some r.Tcp.lat else None) all) in
  let every = all @ List.concat (Array.to_list tail_records) in
  let failed = List.length (List.filter (fun (r : Tcp.record) -> not r.Tcp.ok) every) in
  { Report.correct = !bad_reads = 0 && sum_ok && state_ok;
    attempted = List.length every;
    failed;
    metrics =
      [ ("setup_s", "s", setup_s); ("qps", "1/s", float_of_int (List.length all) /. elapsed) ]
      @ Report.latency ~all:(lat (fun _ -> true))
          ~reads:(lat (fun r -> r.Tcp.read_op))
          ~writes:(lat (fun r -> not r.Tcp.read_op))
      @ [ ("rss_mb", "MiB", rss); ("recover_s", "s", recover_s);
          ("disk_bytes_per_write", "B", float_of_int grown /. float_of_int (max 1 !acked_writes)) ] }

(* --- the traced run ---------------------------------------------------------------- *)

let trace ~scale ~seed ~tmpl ~work ~trace_path =
  let accounts = accounts_of scale in
  let dir = Filename.concat work "data" in
  let e, _ = setup ~accounts ~tmpl ~dir ~nconn:1 in
  let dur_dir = Filename.concat work "trace-durable" in
  Util.rm_rf dur_dir;
  Util.copy_tree tmpl dur_dir;
  let mem_db = Db.create () in
  load mem_db accounts;
  let mem = Db.share mem_db in
  let next = stream ~accounts ~seed 0 in
  let n_ops = match scale with Report.Full -> 100 | Report.Small -> 20 in
  let ops = Array.init n_ops (fun j -> fst (next j)) in
  (* The first writes of each connection's stream, as the timed run
     sends them from nproc connections at once. *)
  let writers =
    Array.init (Domain.recommended_domain_count ()) (fun i ->
        let next = stream ~accounts ~seed i in
        Array.init (2 * n_ops) (fun j -> fst (next j))
        |> Array.to_list |> List.filter (fun (o : Tcp.op) -> not o.read) |> Array.of_list)
  in
  let metrics, attempted, failed =
    Layers.run_traced
      { Layers.ops; conn = e.conns.(0); port = e.srv.Tcp.port; mem; dur_dir; writers;
        indexes = [ ("accounts", "id") ]; parallelism = 1 }
      ~trace_path
  in
  discard e;
  Util.rm_rf dur_dir;
  { Report.correct = failed = 0; attempted; failed; metrics }
