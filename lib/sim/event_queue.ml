type handle = int

(* A 4-ary min-heap stored as parallel arrays: slot [i] of [time],
   [rank], [seq], [id] and [value] together make one entry, and the
   children of entry [i] are entries [4i+1 .. 4i+4]. Entries order by
   (time, major, minor, seq), where [rank = major lsl 32 lor minor]
   packs the middle two keys into one int. Plain pushes use rank
   (1, 0), so among themselves they keep the historical
   (time, insertion-seq) order. The parallel engine inserts cross-LP
   channel deliveries with [push_keyed] at major 0 and minor = the
   channel id: at equal timestamps, channel messages run before local
   events, ordered across channels by channel id and within a channel
   by FIFO arrival — none of which depends on when the scheduler
   happened to drain them into the wheel.

   A 4-ary heap is half as deep as a binary one, and a sift-down
   compares the four children, which sit next to each other in each
   array. Sifts move a hole rather than swapping, so each level costs
   one store per array. No entry is boxed: pushing and popping
   allocate nothing once the arrays are large enough.

   The same-instant run. A simulation schedules many events at the
   instant it is executing (every zero-delay continuation), and in a
   heap each of them would sift up to the root and back down. So a
   plain [push] at [run_time] goes instead to a FIFO run beside the
   heap: a ring of (seq, value) pairs that all share the timestamp
   [run_time] and the plain rank. Sequence numbers only grow, so
   appending keeps the run sorted by the full key, and [min_time] and
   [pop_min] take the smaller of the run head and the heap root by
   (time, major, minor, seq): the pop order is exactly the heap-only
   order. While the run is empty, [run_time] follows the timestamp of
   the latest pop, which is the simulator's current instant.

   Cancellation. [id] is -1 for events that cannot be cancelled;
   a cancellable event gets the next counter value as its handle,
   which stays in [live_handles] until the event is cancelled or pops.
   A cancelled entry stays in the heap and is skipped when it reaches
   the top. *)

let minor_limit = 1 lsl 32
let major_limit = 1 lsl 30
let plain_rank = 1 lsl 32

type 'a t = {
  mutable time : int array;
  mutable rank : int array;
  mutable seq : int array;
  mutable id : int array;
  mutable value : 'a array;
  mutable size : int;
  mutable next_seq : int;
  mutable next_id : int;
  live_handles : (handle, unit) Hashtbl.t;
  mutable live : int;
  (* The run: [run_len] entries starting at ring slot [run_head];
     capacities are powers of two. *)
  mutable run_seq : int array;
  mutable run_value : 'a array;
  mutable run_head : int;
  mutable run_len : int;
  mutable run_time : int;
}

(* Filler for vacated [value] cells, so the heap never keeps a popped
   value reachable. It is an immediate, so arrays made from it are
   never flat float arrays, and it is never returned to a caller. *)
let vacant () : 'a = Obj.magic 0

let initial_capacity = 64

let create () =
  {
    time = Array.make initial_capacity 0;
    rank = Array.make initial_capacity 0;
    seq = Array.make initial_capacity 0;
    id = Array.make initial_capacity 0;
    value = Array.make initial_capacity (vacant ());
    size = 0;
    next_seq = 0;
    next_id = 0;
    live_handles = Hashtbl.create 16;
    live = 0;
    run_seq = Array.make initial_capacity 0;
    run_value = Array.make initial_capacity (vacant ());
    run_head = 0;
    run_len = 0;
    run_time = min_int;
  }

let grow q =
  let cap = 2 * Array.length q.time in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 q.size;
    b
  in
  q.time <- extend q.time 0;
  q.rank <- extend q.rank 0;
  q.seq <- extend q.seq 0;
  q.id <- extend q.id 0;
  q.value <- extend q.value (vacant ())

(* Place (t, r, s, h, v) by moving the hole at [i] up to its spot. *)
let sift_up q i t r s h v =
  let time = q.time and rank = q.rank and seq = q.seq in
  let id = q.id and value = q.value in
  let i = ref i and moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) lsr 2 in
    let tp = time.(p) in
    if t < tp || (t = tp && (r < rank.(p) || (r = rank.(p) && s < seq.(p))))
    then begin
      time.(!i) <- tp;
      rank.(!i) <- rank.(p);
      seq.(!i) <- seq.(p);
      id.(!i) <- id.(p);
      value.(!i) <- value.(p);
      i := p
    end
    else moving := false
  done;
  let i = !i in
  time.(i) <- t;
  rank.(i) <- r;
  seq.(i) <- s;
  id.(i) <- h;
  value.(i) <- v

(* Place (t, r, s, h, v) by moving the hole at [i] down past every
   child that orders before it. *)
let sift_down q i t r s h v =
  let time = q.time and rank = q.rank and seq = q.seq in
  let id = q.id and value = q.value in
  let n = q.size in
  let i = ref i and moving = ref true in
  while !moving do
    let first = (4 * !i) + 1 in
    if first >= n then moving := false
    else begin
      (* smallest of the (up to four) children *)
      let c = ref first in
      let last = if first + 3 < n then first + 3 else n - 1 in
      for j = first + 1 to last do
        let tj = time.(j) and tc = time.(!c) in
        if
          tj < tc
          || tj = tc
             && (rank.(j) < rank.(!c)
                || (rank.(j) = rank.(!c) && seq.(j) < seq.(!c)))
        then c := j
      done;
      let c = !c in
      let tc = time.(c) in
      if tc < t || (tc = t && (rank.(c) < r || (rank.(c) = r && seq.(c) < s)))
      then begin
        time.(!i) <- tc;
        rank.(!i) <- rank.(c);
        seq.(!i) <- seq.(c);
        id.(!i) <- id.(c);
        value.(!i) <- value.(c);
        i := c
      end
      else moving := false
    end
  done;
  let i = !i in
  time.(i) <- t;
  rank.(i) <- r;
  seq.(i) <- s;
  id.(i) <- h;
  value.(i) <- v

(* Drop the top entry: the last entry fills the hole at the root. *)
let remove_top q =
  let n = q.size - 1 in
  q.size <- n;
  if n > 0 then
    sift_down q 0 q.time.(n) q.rank.(n) q.seq.(n) q.id.(n) q.value.(n);
  q.value.(n) <- vacant ()

(* Double the ring, unrolling it so the run starts at slot 0. *)
let grow_run q =
  let cap = Array.length q.run_seq in
  let unroll a fill =
    let b = Array.make (2 * cap) fill in
    let first = cap - q.run_head in
    Array.blit a q.run_head b 0 first;
    Array.blit a 0 b first q.run_head;
    b
  in
  q.run_seq <- unroll q.run_seq 0;
  q.run_value <- unroll q.run_value (vacant ());
  q.run_head <- 0

let push_entry q time rank value h =
  if q.size = Array.length q.time then grow q;
  let s = q.next_seq in
  q.next_seq <- s + 1;
  let i = q.size in
  q.size <- i + 1;
  q.live <- q.live + 1;
  sift_up q i time rank s h value

let push q time value =
  if time = q.run_time then begin
    if q.run_len = Array.length q.run_seq then grow_run q;
    let s = q.next_seq in
    q.next_seq <- s + 1;
    let i = (q.run_head + q.run_len) land (Array.length q.run_seq - 1) in
    q.run_seq.(i) <- s;
    q.run_value.(i) <- value;
    q.run_len <- q.run_len + 1;
    q.live <- q.live + 1
  end
  else push_entry q time plain_rank value (-1)

let push_keyed q time ~major ~minor value =
  if major < 0 || major >= major_limit || minor < 0 || minor >= minor_limit
  then invalid_arg "Event_queue.push_keyed: major or minor out of range";
  push_entry q time ((major lsl 32) lor minor) value (-1)

let push_cancellable q time value =
  let h = q.next_id in
  q.next_id <- h + 1;
  Hashtbl.replace q.live_handles h ();
  push_entry q time plain_rank value h;
  h

let cancel q h =
  if Hashtbl.mem q.live_handles h then begin
    Hashtbl.remove q.live_handles h;
    q.live <- q.live - 1
  end

(* Remove cancelled entries from the top, so the root is live (or the
   heap is empty). *)
let rec skip_dead q =
  if q.size > 0 then begin
    let h = q.id.(0) in
    if h >= 0 && not (Hashtbl.mem q.live_handles h) then begin
      remove_top q;
      skip_dead q
    end
  end

(* Whether the next pop takes the run head rather than the heap root:
   the run holds plain entries at [run_time], so they compare with
   the root by (time, rank, seq). Call after [skip_dead]. *)
let run_first q =
  q.run_len > 0
  && (q.size = 0
     ||
     let t = q.time.(0) in
     q.run_time < t
     || q.run_time = t
        && (plain_rank < q.rank.(0)
           || (plain_rank = q.rank.(0) && q.run_seq.(q.run_head) < q.seq.(0))))

let min_time q =
  skip_dead q;
  if run_first q then q.run_time
  else if q.size = 0 then max_int
  else q.time.(0)

let pop_min q =
  skip_dead q;
  if run_first q then begin
    let i = q.run_head in
    let v = q.run_value.(i) in
    q.run_value.(i) <- vacant ();
    q.run_head <- (i + 1) land (Array.length q.run_seq - 1);
    q.run_len <- q.run_len - 1;
    q.live <- q.live - 1;
    v
  end
  else begin
    if q.size = 0 then invalid_arg "Event_queue.pop_min: empty queue";
    let v = q.value.(0) in
    let h = q.id.(0) in
    if h >= 0 then Hashtbl.remove q.live_handles h;
    if q.run_len = 0 then q.run_time <- q.time.(0);
    remove_top q;
    q.live <- q.live - 1;
    v
  end

let pop q =
  if q.live = 0 then None
  else
    let t = min_time q in
    Some (t, pop_min q)

let peek_time q = if q.live = 0 then None else Some (min_time q)

let is_empty q = q.live = 0
let length q = q.live
