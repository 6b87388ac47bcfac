(* The TCP side: a quillsh --serve process on a data directory, and a
   closed-loop load generator with one domain per connection.  Each
   domain owns one long-lived connection and waits for every reply
   before sending its next request, so the generator never runs more
   than [nproc] threads and never shares the server's runtime. *)

module Value = Quill_storage.Value
module Client = Quill_server.Client
module Wire = Quill_server.Wire

(* --- the server process -------------------------------------------------- *)

type server = { pid : int; port : int; out : in_channel }

(* quillsh is built next to this executable in the dune build tree. *)
let quillsh () =
  let exe =
    if Filename.is_relative Sys.executable_name then
      Filename.concat (Sys.getcwd ()) Sys.executable_name
    else Sys.executable_name
  in
  Filename.concat
    (Filename.dirname (Filename.dirname exe))
    (Filename.concat "bin" "quillsh.exe")

let start_server dir =
  let exe = quillsh () in
  if not (Sys.file_exists exe) then failwith ("quillsh not built: " ^ exe);
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      [| exe; "--serve"; "--port"; "0"; "--data-dir"; dir |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  let rec wait_port () =
    match In_channel.input_line out with
    | None -> failwith "quillsh --serve exited before listening"
    | Some l -> (
        match Scanf.sscanf_opt l "quillsh: listening on %[^:]:%d" (fun _ p -> p) with
        | Some p -> p
        | None -> wait_port ())
  in
  let port =
    try wait_port ()
    with e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      raise e
  in
  { pid; port; out }

let server_rss_mb s = Util.peak_rss_mb (string_of_int s.pid)

(* SIGKILL: acknowledged commits are already on disk, nothing else is. *)
let kill_server s =
  (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] s.pid);
  close_in_noerr s.out

(* --- requests ------------------------------------------------------------ *)

type frame = Exec of string * Value.t array | Text of string

(* A request: one prepared read, or a write made of text frames (an
   autocommit statement, or BEGIN ... COMMIT). *)
type op = { read : bool; frames : frame list }

type conn = { c : Client.t; ids : (string, int) Hashtbl.t }

let connect port = { c = Client.connect ~port (); ids = Hashtbl.create 4 }

let prepare conn sql =
  if not (Hashtbl.mem conn.ids sql) then
    match Client.prepare conn.c sql with
    | Ok id -> Hashtbl.replace conn.ids sql id
    | Error m -> failwith ("prepare failed: " ^ m)

let send conn = function
  | Exec (sql, params) -> Client.execute conn.c (Hashtbl.find conn.ids sql) params
  | Text sql -> Client.query conn.c sql

let is_conflict = function Wire.Err (Wire.Conflict_err, _) -> true | _ -> false

(* Run an op's frames in order, stopping at the first error.  A
   conflict (first-committer-wins) retries the whole op; the server has
   already rolled the transaction back.  Returns the last reply and
   whether the op succeeded. *)
let max_attempts = 10

let run_op conn op =
  let rec frames = function
    | [] -> assert false
    | [ f ] -> send conn f
    | f :: rest -> (
        match send conn f with Wire.Err _ as e -> e | _ -> frames rest)
  in
  let rec attempt n =
    let resp = frames op.frames in
    if is_conflict resp && n < max_attempts then attempt (n + 1) else resp
  in
  let resp = attempt 1 in
  (resp, match resp with Wire.Err _ -> false | _ -> true)

(* --- the closed loop ----------------------------------------------------- *)

type record = { idx : int; read_op : bool; lat : float; ok : bool; reply : Wire.response }

(* [closed_loop conns ~next ~stop] runs one domain per connection; the
   domain for connection [i] issues [next i j] for j = 0, 1, ... until
   [stop j elapsed] holds.  Records come back per connection, in issue
   order, each keeping the raw reply: checking it is left to the caller,
   after the loop, so no checking work is timed. *)
let closed_loop conns ~next ~stop =
  let t0 = Util.now () in
  let run i conn () =
    let out = ref [] in
    let j = ref 0 in
    while not (stop !j (Util.now () -. t0)) do
      let op = next i !j in
      let s = Util.now () in
      let reply, ok = run_op conn op in
      let lat = Util.now () -. s in
      out := { idx = !j; read_op = op.read; lat; ok; reply } :: !out;
      incr j
    done;
    List.rev !out
  in
  let domains = Array.mapi (fun i c -> Domain.spawn (run i c)) conns in
  let results = Array.map Domain.join domains in
  (results, Util.now () -. t0)

let close conn = Client.close conn.c
