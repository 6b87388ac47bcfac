(* Helpers shared by the workloads: sample buffers and exact percentiles,
   result digests, process and directory plumbing, and the JSON the
   benchmark prints. *)

module Value = Quill_storage.Value
module Table = Quill_storage.Table
module Wire = Quill_server.Wire

(* Monotonic, nanosecond resolution: spans of a few microseconds are
   common in the traced run. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- samples ------------------------------------------------------------ *)

(* A growable float buffer; percentiles are computed from every stored
   sample, never from histogram buckets. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let length t = t.n
  let to_array t = Array.sub t.a 0 t.n
end

(* Linear interpolation between closest ranks; [nan] on no samples. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let quantile a q =
  let s = Array.copy a in
  Array.sort compare s;
  quantile_sorted s q

let median a = quantile a 0.5

(* --- digests ------------------------------------------------------------ *)

let digest_strings l = Digest.to_hex (Digest.string (String.concat "\x1f" l))

let row_key row = String.concat "\x1e" (Array.to_list (Array.map Value.to_string row))

(* Order-insensitive digest of a result: rows are rendered and sorted,
   so engines that emit rows in a different order still agree. *)
let digest_rows rows = digest_strings (List.sort compare (List.map row_key rows))

let table_rows t =
  List.init (Table.row_count t) (fun i ->
      Array.init (Quill_storage.Schema.arity (Table.schema t)) (fun j -> Table.get t i j))

let digest_response = function
  | Wire.Result (_, rows) -> digest_rows rows
  | Wire.Affected n -> "affected:" ^ string_of_int n
  | Wire.Text s -> "text:" ^ s
  | Wire.Prepared id -> "prepared:" ^ string_of_int id
  | Wire.Err (_, m) -> "error:" ^ m

(* Row-by-row comparison after sorting both sides; floats may differ by
   a relative 1e-9, which covers parallel aggregation reordering float
   additions. *)
let rows_match a b =
  let rec cmp_from r s i =
    if i >= Array.length r || i >= Array.length s then
      compare (Array.length r) (Array.length s)
    else
      let c = Value.compare r.(i) s.(i) in
      if c <> 0 then c else cmp_from r s (i + 1)
  in
  let sort = List.sort (fun r s -> cmp_from r s 0) in
  let close x y =
    match (x, y) with
    | Value.Float f, Value.Float g ->
        Float.abs (f -. g) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs f) (Float.abs g))
    | _ -> Value.equal x y
  in
  List.length a = List.length b
  && List.for_all2
       (fun r s -> Array.length r = Array.length s && Array.for_all2 close r s)
       (sort a) (sort b)

(* --- files and processes ------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Copies are flushed as they are written: otherwise the kernel writes
   them back some 30 s later, in the middle of a timed phase, and the
   fsyncs measured there wait behind it. *)
let rec copy_tree src dst =
  if Sys.is_directory src then begin
    mkdir_p dst;
    Array.iter
      (fun e -> copy_tree (Filename.concat src e) (Filename.concat dst e))
      (Sys.readdir src)
  end
  else begin
    let data = In_channel.with_open_bin src In_channel.input_all in
    let fd = Unix.openfile dst [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let n = String.length data in
        let rec write off =
          if off < n then write (off + Unix.write_substring fd data off (n - off))
        in
        write 0;
        Unix.fsync fd)
  end

let rec dir_bytes path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc e -> acc + dir_bytes (Filename.concat path e))
        0 (Sys.readdir path)
  | st -> st.Unix.st_size

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> go ()
      in
      go ())

let self_rss_mb () = peak_rss_mb "self"

(* --- output ------------------------------------------------------------- *)

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* Scratch space for stores, server data and span files, inside the
   checkout the benchmark runs from. *)
let out_dir = ".perfbench"

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v
