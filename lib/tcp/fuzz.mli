(** Negative/fuzz corpus for the wire codec.

    Robustness gate for {!Wire.decode} and the checksum helpers: a
    seeded corpus of valid frames is mutilated — truncations at every
    interesting boundary, bit flips, corrupted data offsets and
    lengths, VLAN-tag damage, raw garbage — and every case is fed to
    the decoder, which must classify (accept or return an [error])
    without ever raising. On each mutated frame, {!Checksum.internet}
    over a random in-bounds range must also equal a byte-at-a-time
    reference. Used both as a CI subcommand
    ([flexlint fuzz-wire]) and as a property-test entry. *)

type stats = {
  total : int;  (** Mutated inputs decoded. *)
  accepted : int;  (** Decoded to a frame (mutation was survivable). *)
  rejected : int;  (** Cleanly classified as a {!Wire.error}. *)
  raised : int;  (** Decoder raised — always a bug; must be 0. *)
  csum_caught : int;
      (** Payload/header bit flips detected by checksum verification. *)
  csum_mismatched : int;
      (** Mutated frames on which {!Checksum.internet}, over a random
          in-bounds range, differs from a byte-at-a-time reference —
          always a bug; must be 0. *)
  failures : string list;
      (** Up to 10 descriptions of raising cases (mutation + exn). *)
}

val run : ?seed:int64 -> ?cases:int -> unit -> stats
(** Run [cases] (default 2000) seeded corpus cases. Deterministic for
    a fixed [seed] (default 0xF022L). *)

val ok : stats -> bool
(** [raised = 0] and [csum_mismatched = 0]: the decoder never threw and
    the Internet checksum always matched the reference. *)
