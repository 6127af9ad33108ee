(** Priority queue of timed events.

    A 4-ary min-heap stored as parallel arrays (struct of arrays),
    keyed on (time, major, minor, insertion sequence). Plain pushes
    share one (major, minor) rank, so events with equal timestamps pop
    in insertion order, which makes simulations deterministic without
    relying on heap tie-breaking accidents. Plain pushes at the
    timestamp of the latest pop skip the heap: they wait in a FIFO run
    beside it, and the pop order is exactly the heap-only order.
    Entries are not boxed: {!push}, {!min_time} and {!pop_min}
    allocate nothing once the arrays have grown to the queue's peak
    depth, and a popped value is no longer reachable from the
    queue. *)

type 'a t

type handle
(** Identifies a cancellable event. *)

val create : unit -> 'a t

val push : 'a t -> Time.t -> 'a -> unit
(** [push q time v] schedules [v] at [time]. *)

val push_keyed : 'a t -> Time.t -> major:int -> minor:int -> 'a -> unit
(** [push_keyed q time ~major ~minor v] schedules [v] with an explicit
    tie-break rank: entries order by (time, major, minor, insertion
    seq), and {!push} uses rank (1, 0). The parallel engine inserts
    cross-LP channel deliveries at [major = 0] with [minor] set to the
    channel id, so at equal timestamps channel messages run before
    local events, in channel-id order — an order independent of when
    the scheduler drained them into the wheel, which is what makes
    multi-domain runs bit-reproducible. Raises [Invalid_argument]
    unless [0 <= major < 2^30] and [0 <= minor < 2^32]. *)

val push_cancellable : 'a t -> Time.t -> 'a -> handle
(** Like {!push} but returns a handle for {!cancel}. *)

val cancel : 'a t -> handle -> unit
(** Cancel a previously pushed event. Cancelling an event that has
    already popped (or was already cancelled) is a no-op. *)

val min_time : 'a t -> Time.t
(** Timestamp of the earliest live event; [max_int] when there is
    none. Allocates nothing. *)

val pop_min : 'a t -> 'a
(** Remove the earliest live event and return its value; its
    timestamp is the {!min_time} just before the call. Allocates
    nothing. Raises [Invalid_argument] if no event is live. *)

val pop : 'a t -> (Time.t * 'a) option
(** Remove and return the earliest live event. *)

val peek_time : 'a t -> Time.t option
(** Timestamp of the earliest live event, if any. *)

val is_empty : 'a t -> bool

val length : 'a t -> int
(** Number of live (non-cancelled) events. *)
