(** Internet checksum (RFC 1071) and CRC-32.

    The Internet checksum covers IPv4 headers and TCP
    pseudo-header+segment. CRC-32 (IEEE 802.3 polynomial) models the
    NFP-4000's CRC acceleration, used by FlexTOE's pre-processor to
    hash a segment's 4-tuple into the active-connection database and
    to pick flow groups. *)

val ones_complement : Bytes.t -> off:int -> len:int -> init:int -> int
(** Raw ones'-complement sum of [init] and the big-endian 16-bit words
    of [buf.[off .. off+len)] (not yet complemented). An odd trailing
    byte is padded with zero, per RFC 1071. The raw value is specified
    only up to its ones'-complement residue: pass it to {!finish} or
    use it as another call's [init], but do not compare it directly.
    For [init >= 0], [finish] of it is what [finish] gives for the
    plain sum; an all-zero range adds nothing. When [len <= 0] the
    result is [init] itself, whatever [off]. Otherwise raises
    [Invalid_argument] iff [[off, off+len)] is not inside [buf].
    Sums 64-bit words and allocates nothing. *)

val finish : int -> int
(** Fold carries and complement, yielding the 16-bit checksum. *)

val internet : Bytes.t -> off:int -> len:int -> int
(** [finish (ones_complement ~init:0 ...)]. *)

val pseudo_header_sum :
  src_ip:int -> dst_ip:int -> protocol:int -> length:int -> int
(** Ones'-complement sum of the IPv4 pseudo-header for TCP/UDP
    checksums. *)

val crc32 : Bytes.t -> off:int -> len:int -> int
(** CRC-32 (reflected, IEEE polynomial 0xEDB88320), as used for flow
    hashing. *)

val crc32_ints : int list -> int
(** CRC-32 over a list of 32-bit big-endian words; convenient for
    hashing a 4-tuple without materialising bytes. *)
