(** Per-socket payload buffers in host memory.

    FlexTOE keeps per-socket RX/TX payload buffers in per-process host
    memory (allocated from hugepages by the control plane); the NIC
    data-path DMAs payloads directly to/from them at positions
    computed by the protocol stage. The buffer is addressed by
    {e absolute stream offset}: offset [o] maps to ring index
    [o mod size]. Range accounting (what is valid, acked, readable) is
    the caller's responsibility, exactly as in FlexTOE where the
    protocol stage owns the positions (§3, Table 5). *)

type t

val create : size:int -> t
(** [size] must be positive (FlexTOE would also require a power of
    two; we only require positivity). The backing memory starts at
    4 KiB (or [size] if smaller) and doubles, up to [size], the first
    time a write or read touches a higher ring index; positions and
    contents are as if the whole ring existed from the start, with
    never-written bytes reading as zero. *)

val size : t -> int

val write : t -> off:int -> src:Bytes.t -> src_off:int -> len:int -> unit
(** Copy [len] bytes of [src] starting at [src_off] into the ring at
    stream offset [off] (wrapping). Raises [Invalid_argument] if
    [len > size]. *)

val read : t -> off:int -> len:int -> Bytes.t
(** Copy out [len] bytes at stream offset [off]. *)

val read_into : t -> off:int -> dst:Bytes.t -> dst_off:int -> len:int -> unit
