(* In-memory span recorder for the traced run.

   A span is (name, start, end, parent), in host nanoseconds. The
   benchmark opens spans around its own calls into the program (engine
   run slices, fabric hook continuations, socket calls); spans inside
   the library are out of its reach. Everything stays in preallocated
   arrays until [write] dumps it at the end of the run. *)

type t = {
  ids : (string, int) Hashtbl.t;
  mutable names : string array;
  name : Grow.t;
  start : Grow.t;
  stop : Grow.t;
  parent : Grow.t;
  mutable stack : int array;
  mutable depth : int;
}

let create () =
  {
    ids = Hashtbl.create 16;
    names = [||];
    name = Grow.create ~cap:65536 ();
    start = Grow.create ~cap:65536 ();
    stop = Grow.create ~cap:65536 ();
    parent = Grow.create ~cap:65536 ();
    stack = Array.make 64 0;
    depth = 0;
  }

let id t s =
  match Hashtbl.find_opt t.ids s with
  | Some i -> i
  | None ->
      let i = Array.length t.names in
      Hashtbl.replace t.ids s i;
      t.names <- Array.append t.names [| s |];
      i

let count t = Grow.length t.name

let enter t nid =
  let i = Grow.length t.name in
  Grow.push t.name nid;
  Grow.push t.parent (if t.depth = 0 then -1 else t.stack.(t.depth - 1));
  Grow.push t.stop 0;
  if t.depth = Array.length t.stack then
    t.stack <- Array.append t.stack (Array.make t.depth 0);
  t.stack.(t.depth) <- i;
  t.depth <- t.depth + 1;
  Grow.push t.start (Clock.now_ns ())

let leave t =
  if t.depth = 0 then invalid_arg "Spans.leave: no open span";
  t.depth <- t.depth - 1;
  Grow.set t.stop t.stack.(t.depth) (Clock.now_ns ())

let wrap t nid f =
  enter t nid;
  match f () with
  | v ->
      leave t;
      v
  | exception e ->
      leave t;
      raise e

type summary = { s_name : string; s_count : int; s_total_ns : int; s_self_ns : int }

(* Self time = duration minus the part covered by child spans. Spans
   are recorded in start order and children never outlive their
   parent, so one pass subtracting each span from its parent does. *)
let summarize t =
  let n = count t in
  let self = Array.init n (fun i -> Grow.get t.stop i - Grow.get t.start i) in
  for i = 0 to n - 1 do
    let p = Grow.get t.parent i in
    if p >= 0 then
      self.(p) <- self.(p) - (Grow.get t.stop i - Grow.get t.start i)
  done;
  let k = Array.length t.names in
  let cnt = Array.make k 0 and tot = Array.make k 0 and slf = Array.make k 0 in
  for i = 0 to n - 1 do
    let nm = Grow.get t.name i in
    cnt.(nm) <- cnt.(nm) + 1;
    tot.(nm) <- tot.(nm) + (Grow.get t.stop i - Grow.get t.start i);
    slf.(nm) <- slf.(nm) + self.(i)
  done;
  Array.to_list
    (Array.mapi
       (fun i s ->
         { s_name = s; s_count = cnt.(i); s_total_ns = tot.(i); s_self_ns = slf.(i) })
       t.names)

let find summaries name =
  List.find_opt (fun s -> s.s_name = name) summaries

(* One JSON object per line: {"i","name","start_ns","end_ns","parent"},
   times relative to the first span's start. *)
let write t path =
  let oc = open_out path in
  let base = if count t = 0 then 0 else Grow.get t.start 0 in
  for i = 0 to count t - 1 do
    Printf.fprintf oc
      "{\"i\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d}\n" i
      t.names.(Grow.get t.name i)
      (Grow.get t.start i - base)
      (Grow.get t.stop i - base)
      (Grow.get t.parent i)
  done;
  close_out oc
