(* calib.exe: a fixed reference loop that tracks the host's current
   speed. It prints its wall time in nanoseconds.

   The loop has the simulator's two kinds of work: per-event work (a
   binary heap of timed closures with small allocations and hash-table
   lookups) and per-byte work (64 KiB buffers allocated, copied and
   summed 16 bits at a time). Each kind runs five passes, and the
   printed time is the sum of the two median passes, so a single
   preempted pass does not count.

   It shares nothing with the program but the compiler and the host.
   It links no library of the program, it is compiled with fixed flags
   (see dune), and it runs in a fresh process of its own with fixed GC
   parameters, started between the world processes. *)

let events () =
  let n = 4096 in
  let time = Array.make n 0 and act = Array.make n (fun () -> 0) in
  let size = ref 0 in
  let swap i j =
    let t = time.(i) and a = act.(i) in
    time.(i) <- time.(j);
    act.(i) <- act.(j);
    time.(j) <- t;
    act.(j) <- a
  in
  let push t a =
    let i = ref !size in
    time.(!i) <- t;
    act.(!i) <- a;
    incr size;
    while !i > 0 && time.((!i - 1) / 2) > time.(!i) do
      swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  in
  let pop () =
    let t = time.(0) and a = act.(0) in
    decr size;
    time.(0) <- time.(!size);
    act.(0) <- act.(!size);
    let i = ref 0 and go = ref true in
    while !go do
      let l = (2 * !i) + 1 in
      let m = if l + 1 < !size && time.(l + 1) < time.(l) then l + 1 else l in
      if l < !size && time.(m) < time.(!i) then begin
        swap !i m;
        i := m
      end
      else go := false
    done;
    (t, a)
  in
  let tbl = Hashtbl.create 1024 in
  let rng = ref 12345 in
  let next () =
    rng := ((!rng * 1103515245) + 12345) land 0x3fffffff;
    !rng
  in
  for k = 0 to 1023 do
    push (next () land 0xffff) (fun () -> k)
  done;
  let acc = ref 0 in
  for _ = 1 to 60_000 do
    let t, a = pop () in
    let v = a () in
    let key = v land 511 in
    let r =
      match Hashtbl.find_opt tbl key with
      | Some r -> r
      | None ->
          let r = ref 0 in
          Hashtbl.replace tbl key r;
          r
    in
    r := !r + v;
    acc := !acc + List.length [ v; t ];
    push (t + 1 + (next () land 0xfff)) (fun () -> v + 1)
  done;
  !acc

let bytes () =
  let src = Bytes.init 65536 (fun i -> Char.chr (i land 255)) in
  let acc = ref 0 in
  for _ = 1 to 144 do
    let dst = Bytes.create 65536 in
    Bytes.blit src 0 dst 0 65536;
    let i = ref 0 in
    while !i < 65536 do
      acc := !acc + Bytes.get_uint16_be dst !i;
      i := !i + 2
    done
  done;
  !acc

let median_pass f =
  let pass () =
    let t = Monotonic_clock.now () in
    ignore (Sys.opaque_identity (f ()));
    Int64.sub (Monotonic_clock.now ()) t
  in
  List.nth (List.sort compare (List.init 5 (fun _ -> pass ()))) 2

let () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 262_144; space_overhead = 120 };
  print_endline (Int64.to_string (Int64.add (median_pass events) (median_pass bytes)))
