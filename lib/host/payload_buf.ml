(* [data] covers ring indices [0, Bytes.length data) and doubles, up to
   [size], the first time an access touches a higher index, so a socket
   that never fills its ring never pays for all of it. Bytes past the
   old end read as zero, like a ring no one has written yet. *)
type t = { mutable data : Bytes.t; size : int }

let initial_bytes = 4096

let create ~size =
  if size <= 0 then invalid_arg "Payload_buf.create: size must be positive";
  { data = Bytes.make (min size initial_bytes) '\000'; size }

let size t = t.size

(* Make ring indices below [need] addressable ([need <= t.size]). *)
let reserve t need =
  let cap = Bytes.length t.data in
  if need > cap then begin
    let cap' = ref (2 * cap) in
    while !cap' < need do
      cap' := 2 * !cap'
    done;
    let data = Bytes.make (min !cap' t.size) '\000' in
    Bytes.blit t.data 0 data 0 cap;
    t.data <- data
  end

(* Ring index of stream offset [off], with the buffer grown to cover
   the [len] bytes from there (to the end of the ring if they wrap). *)
let locate t ~off ~len =
  let start = ((off mod t.size) + t.size) mod t.size in
  reserve t (min t.size (start + len));
  start

let write t ~off ~src ~src_off ~len =
  if len > t.size then invalid_arg "Payload_buf.write: larger than buffer";
  let start = locate t ~off ~len in
  let first = min len (t.size - start) in
  Bytes.blit src src_off t.data start first;
  if len > first then Bytes.blit src (src_off + first) t.data 0 (len - first)

let read_into t ~off ~dst ~dst_off ~len =
  if len > t.size then invalid_arg "Payload_buf.read: larger than buffer";
  let start = locate t ~off ~len in
  let first = min len (t.size - start) in
  Bytes.blit t.data start dst dst_off first;
  if len > first then Bytes.blit t.data 0 dst (dst_off + first) (len - first)

let read t ~off ~len =
  let out = Bytes.create len in
  read_into t ~off ~dst:out ~dst_off:0 ~len;
  out
