(* RFC 1071 sec. 2: a ones'-complement sum does not depend on byte
   order or word size. So the buffer is summed as 64-bit little-endian
   loads (four per loop turn), each split into two 32-bit halves that
   accumulate in a native int; a 63-bit int takes 2^29 loads, 4 GiB,
   before it could overflow. Folded to 16 bits, that is the sum of the
   little-endian 16-bit words, and one byte swap turns it into the
   big-endian sum the checksum is defined on. The last [len mod 8]
   bytes are paired byte-wise, an odd final byte as the low half of a
   zero-padded little-endian word. A non-empty buffer folds to a value
   in [1, 0xFFFF], so [finish] of the result equals [finish] of the
   plain 16-bit-word sum, for an all-zero buffer too. *)
let rec fold16 s =
  if s > 0xFFFF then fold16 ((s land 0xFFFF) + (s lsr 16)) else s

(* [Bytes.get_int64_le] without its per-load bounds check:
   [ones_complement] checks the whole range once up front. *)
external get_int64_ne_unsafe : Bytes.t -> int -> int64
  = "%caml_bytes_get64u"

external swap64 : int64 -> int64 = "%bswap_int64"

(* Both 32-bit halves of the little-endian 64-bit word at [i]. *)
let[@inline] halves buf i =
  let w = get_int64_ne_unsafe buf i in
  let w = if Sys.big_endian then swap64 w else w in
  (Int64.to_int w land 0xFFFF_FFFF)
  + Int64.to_int (Int64.shift_right_logical w 32)

let ones_complement buf ~off ~len ~init =
  if len <= 0 then init
  else begin
    if off < 0 || off > Bytes.length buf - len then
      invalid_arg "index out of bounds";
    let stop = off + len in
    let sum = ref 0 and i = ref off in
    let blocks_end = off + (len land lnot 31) in
    while !i < blocks_end do
      let j = !i in
      sum :=
        !sum + halves buf j + halves buf (j + 8) + halves buf (j + 16)
        + halves buf (j + 24);
      i := j + 32
    done;
    let words_end = off + (len land lnot 7) in
    while !i < words_end do
      sum := !sum + halves buf !i;
      i := !i + 8
    done;
    while !i + 1 < stop do
      sum :=
        !sum + Char.code (Bytes.unsafe_get buf !i)
        + (Char.code (Bytes.unsafe_get buf (!i + 1)) lsl 8);
      i := !i + 2
    done;
    if !i < stop then sum := !sum + Char.code (Bytes.unsafe_get buf !i);
    let s = fold16 !sum in
    init + (((s land 0xFF) lsl 8) lor (s lsr 8))
  end

let finish sum = lnot (fold16 sum) land 0xFFFF

let internet buf ~off ~len = finish (ones_complement buf ~off ~len ~init:0)

let pseudo_header_sum ~src_ip ~dst_ip ~protocol ~length =
  (src_ip lsr 16)
  + (src_ip land 0xFFFF)
  + (dst_ip lsr 16)
  + (dst_ip land 0xFFFF)
  + protocol + length

(* Built eagerly at module initialisation: a global [lazy] is not
   domain-safe in OCaml 5 (two domains forcing it at once raise
   [CamlinternalLazy.Undefined]), and FlexPar workers hash flows with
   [crc32_ints] concurrently. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1)
        else c := !c lsr 1
      done;
      !c)

let crc32_update crc byte =
  crc_table.((crc lxor byte) land 0xFF) lxor (crc lsr 8)

let crc32 buf ~off ~len =
  let crc = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    crc := crc32_update !crc (Char.code (Bytes.get buf i))
  done;
  !crc lxor 0xFFFFFFFF

let crc32_ints words =
  let crc = ref 0xFFFFFFFF in
  List.iter
    (fun w ->
      crc := crc32_update !crc ((w lsr 24) land 0xFF);
      crc := crc32_update !crc ((w lsr 16) land 0xFF);
      crc := crc32_update !crc ((w lsr 8) land 0xFF);
      crc := crc32_update !crc (w land 0xFF))
    words;
  !crc lxor 0xFFFFFFFF
