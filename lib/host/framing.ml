let encode payload =
  let n = Bytes.length payload in
  let out = Bytes.create (4 + n) in
  Bytes.set out 0 (Char.chr ((n lsr 24) land 0xFF));
  Bytes.set out 1 (Char.chr ((n lsr 16) land 0xFF));
  Bytes.set out 2 (Char.chr ((n lsr 8) land 0xFF));
  Bytes.set out 3 (Char.chr (n land 0xFF));
  Bytes.blit payload 0 out 4 n;
  out

let encoded_len n = n + 4

(* Unconsumed stream bytes are the window [buf.[pos .. len)]. A push
   appends at [len]. Only when the chunk does not fit behind the
   window does the window move: it slides to the front when it is no
   longer than the consumed prefix [pos] and the chunk then fits, so a
   slide costs at most the bytes consumed since the last move;
   otherwise it is copied into a buffer doubled until both fit, which
   happens only while [buf] is shorter than twice the window plus the
   chunk. So each pushed byte is copied in once plus amortised O(1)
   moves, and each message is copied out of the window exactly once.
   An empty window restarts at the front. *)
type t = { mutable buf : Bytes.t; mutable pos : int; mutable len : int }

let create () = { buf = Bytes.create 4096; pos = 0; len = 0 }

let make_room t n =
  let live = t.len - t.pos in
  if live <= t.pos && live + n <= Bytes.length t.buf then
    Bytes.blit t.buf t.pos t.buf 0 live
  else begin
    let cap = ref (2 * Bytes.length t.buf) in
    while !cap < live + n do
      cap := 2 * !cap
    done;
    let fresh = Bytes.create !cap in
    Bytes.blit t.buf t.pos fresh 0 live;
    t.buf <- fresh
  end;
  t.pos <- 0;
  t.len <- live

let push t chunk =
  let n = Bytes.length chunk in
  if t.len + n > Bytes.length t.buf then make_room t n;
  Bytes.blit chunk 0 t.buf t.len n;
  t.len <- t.len + n

let next t =
  let avail = t.len - t.pos in
  if avail < 4 then None
  else begin
    let n = Int32.to_int (Bytes.get_int32_be t.buf t.pos) land 0xFFFF_FFFF in
    if avail - 4 < n then None
    else begin
      let payload = Bytes.sub t.buf (t.pos + 4) n in
      t.pos <- t.pos + 4 + n;
      if t.pos = t.len then begin
        t.pos <- 0;
        t.len <- 0
      end;
      Some payload
    end
  end

let rec iter_available t f =
  match next t with
  | Some m ->
      f m;
      iter_available t f
  | None -> ()

let buffered t = t.len - t.pos
