(* Host wall clock: CLOCK_MONOTONIC in nanoseconds. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let elapsed_s since = float_of_int (now_ns () - since) /. 1e9
