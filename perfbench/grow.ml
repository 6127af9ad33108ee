(* Growable int array: RTT samples, replay traces and span fields are
   recorded here without boxing. *)

type t = { mutable a : int array; mutable n : int }

let create ?(cap = 1024) () = { a = Array.make (max 1 cap) 0; n = 0 }
let length t = t.n
let get t i = t.a.(i)
let set t i v = t.a.(i) <- v

let push t v =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0 in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- v;
  t.n <- t.n + 1

let to_array t = Array.sub t.a 0 t.n
