(* Simulation-engine substrate tests. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Time ----------------------------------------------------------- *)

let test_time_units () =
  check_int "ns" 1_000 (Sim.Time.ns 1);
  check_int "us" 1_000_000 (Sim.Time.us 1);
  check_int "ms" 1_000_000_000 (Sim.Time.ms 1);
  check_int "sec" 2_500_000_000_000 (Sim.Time.sec 2.5);
  Alcotest.(check (float 1e-9)) "to_sec" 1.0 (Sim.Time.to_sec (Sim.Time.sec 1.))

let test_freq_exact () =
  let fpc = Sim.Time.Freq.of_mhz 800 in
  check_int "800MHz period" 1250 (Sim.Time.Freq.ps_per_cycle fpc);
  check_int "100 cycles" 125_000 (Sim.Time.Freq.cycles fpc 100);
  let host = Sim.Time.Freq.of_ghz 2.0 in
  check_int "2GHz period" 500 (Sim.Time.Freq.ps_per_cycle host);
  check_int "to_cycles rounds up" 3 (Sim.Time.Freq.to_cycles host 1001)

let test_freq_invalid () =
  Alcotest.check_raises "non-integral period"
    (Invalid_argument "Freq.of_mhz: period is not a whole number of picoseconds")
    (fun () -> ignore (Sim.Time.Freq.of_mhz 3000))

(* --- Event queue ------------------------------------------------------ *)

let test_queue_ordering () =
  let q = Sim.Event_queue.create () in
  Sim.Event_queue.push q 30 "c";
  Sim.Event_queue.push q 10 "a";
  Sim.Event_queue.push q 20 "b";
  let pops = List.init 3 (fun _ -> Sim.Event_queue.pop q) in
  Alcotest.(check (list (option (pair int string))))
    "sorted" [ Some (10, "a"); Some (20, "b"); Some (30, "c") ] pops;
  check_bool "empty" true (Sim.Event_queue.is_empty q)

let test_queue_fifo_ties () =
  let q = Sim.Event_queue.create () in
  List.iter (fun v -> Sim.Event_queue.push q 5 v) [ 1; 2; 3; 4 ];
  let order =
    List.init 4 (fun _ ->
        match Sim.Event_queue.pop q with Some (_, v) -> v | None -> -1)
  in
  Alcotest.(check (list int)) "insertion order" [ 1; 2; 3; 4 ] order

let test_queue_cancel () =
  let q = Sim.Event_queue.create () in
  Sim.Event_queue.push q 1 "keep1";
  let h = Sim.Event_queue.push_cancellable q 2 "dead" in
  Sim.Event_queue.push q 3 "keep2";
  Sim.Event_queue.cancel q h;
  Sim.Event_queue.cancel q h;  (* double-cancel is a no-op *)
  check_int "length counts live only" 2 (Sim.Event_queue.length q);
  let vs =
    List.init 2 (fun _ ->
        match Sim.Event_queue.pop q with Some (_, v) -> v | None -> "?")
  in
  Alcotest.(check (list string)) "cancelled skipped" [ "keep1"; "keep2" ] vs;
  (* cancelling after pop is a no-op *)
  let h2 = Sim.Event_queue.push_cancellable q 4 "x" in
  ignore (Sim.Event_queue.pop q);
  Sim.Event_queue.cancel q h2;
  check_int "no corruption" 0 (Sim.Event_queue.length q)

let prop_queue_sorted =
  QCheck.Test.make ~name:"event queue pops in nondecreasing time order"
    ~count:200
    QCheck.(list (int_bound 100_000))
    (fun times ->
      let q = Sim.Event_queue.create () in
      List.iter (fun t -> Sim.Event_queue.push q t t) times;
      let rec drain prev acc =
        match Sim.Event_queue.pop q with
        | None -> List.rev acc
        | Some (t, _) ->
            if t < prev then raise Exit;
            drain t (t :: acc)
      in
      let popped = drain min_int [] in
      List.length popped = List.length times
      && List.sort compare times = popped)

(* Model-based check: random interleavings of every queue operation
   against a sorted-list reference ordered by (time, major, minor,
   seq), with [length] and [is_empty] checked after each step. Few distinct times, majors and minors make equal-key ties the
   common case; long op lists push the heap well past its initial
   64-entry capacity. A [Burst] runs its steps at the current instant
   (the time of the latest pop), where plain pushes join the queue's
   same-instant run: bursts mix them with channel-rank and
   cancellable pushes at that instant, cancels and pops, and are long
   enough to grow the run past its initial 64 slots. *)
type q_op =
  | Push of int
  | Push_keyed of int * int * int
  | Push_cancellable of int
  | Cancel of int  (* index into the handles issued so far *)
  | Pop
  | Pop_min
  | Peek_time
  | Min_time
  | Burst of burst list

and burst = B_push | B_keyed of int | B_cancellable | B_cancel of int | B_pop

let pp_burst = function
  | B_push -> "push"
  | B_keyed mi -> Printf.sprintf "keyed (0,%d)" mi
  | B_cancellable -> "cancellable"
  | B_cancel k -> Printf.sprintf "cancel #%d" k
  | B_pop -> "pop"

let pp_q_op = function
  | Push t -> Printf.sprintf "push %d" t
  | Push_keyed (t, ma, mi) -> Printf.sprintf "push_keyed %d (%d,%d)" t ma mi
  | Push_cancellable t -> Printf.sprintf "push_cancellable %d" t
  | Cancel k -> Printf.sprintf "cancel #%d" k
  | Pop -> "pop"
  | Pop_min -> "pop_min"
  | Peek_time -> "peek_time"
  | Min_time -> "min_time"
  | Burst bs ->
      Printf.sprintf "burst [%s]" (String.concat ", " (List.map pp_burst bs))

let q_ops_arb =
  let open QCheck.Gen in
  let time = frequency [ (4, int_bound 3); (1, int_bound 100_000) ] in
  let op =
    frequency
      [
        (6, map (fun t -> Push t) time);
        ( 4,
          map3
            (fun t ma mi -> Push_keyed (t, ma, mi))
            time (int_bound 2) (int_bound 3) );
        (3, map (fun t -> Push_cancellable t) time);
        (2, map (fun k -> Cancel k) nat);
        (3, return Pop);
        (3, return Pop_min);
        (1, return Peek_time);
        (1, return Min_time);
        ( 1,
          map
            (fun bs -> Burst bs)
            (list_size (int_range 1 150)
               (frequency
                  [
                    (10, return B_push);
                    (1, map (fun mi -> B_keyed mi) (int_bound 3));
                    (2, return B_cancellable);
                    (1, map (fun k -> B_cancel k) nat);
                    (3, return B_pop);
                  ])) );
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_q_op ops))
    ~shrink:QCheck.Shrink.list
    (list_size (int_range 0 1500) op)

(* Reference entry: (time, major, minor, seq), value = seq, and the
   index of its cancellation handle (-1 if none). *)
type q_ref = { r_key : int * int * int * int; r_handle : int }

let prop_queue_model =
  QCheck.Test.make
    ~name:"event queue agrees with a sorted-list reference" ~count:100
    q_ops_arb (fun ops ->
      let q = Sim.Event_queue.create () in
      let model = ref [] and seq = ref 0 in
      let handles = ref [||] in
      let insert ~time ~major ~minor ~handle =
        let e = { r_key = (time, major, minor, !seq); r_handle = handle } in
        let rec ins = function
          | x :: rest when compare x.r_key e.r_key < 0 -> x :: ins rest
          | l -> e :: l
        in
        model := ins !model;
        let s = !seq in
        incr seq;
        s
      in
      let head_time () =
        match !model with { r_key = t, _, _, _; _ } :: _ -> Some t | [] -> None
      in
      let value_of e = let _, _, _, s = e.r_key in s in
      let fail i op fmt =
        QCheck.Test.fail_reportf ("step %d (%s): " ^^ fmt) i (pp_q_op op)
      in
      (* The time of the latest pop: the instant bursts run at. *)
      let now = ref 0 in
      let rec apply i op =
        (match op with
        | Push t ->
            let v = insert ~time:t ~major:1 ~minor:0 ~handle:(-1) in
            Sim.Event_queue.push q t v
        | Push_keyed (t, major, minor) ->
            let v = insert ~time:t ~major ~minor ~handle:(-1) in
            Sim.Event_queue.push_keyed q t ~major ~minor v
        | Push_cancellable t ->
            let idx = Array.length !handles in
            let v = insert ~time:t ~major:1 ~minor:0 ~handle:idx in
            let h = Sim.Event_queue.push_cancellable q t v in
            handles := Array.append !handles [| h |]
        | Cancel k ->
            let n = Array.length !handles in
            if n > 0 then begin
              let idx = k mod n in
              Sim.Event_queue.cancel q !handles.(idx);
              model := List.filter (fun e -> e.r_handle <> idx) !model
            end
        | Pop -> (
            let got = Sim.Event_queue.pop q in
            match (!model, got) with
            | [], None -> ()
            | e :: rest, Some (t, v) ->
                let et, _, _, _ = e.r_key in
                if (t, v) <> (et, value_of e) then
                  fail i op "got (%d, %d), want (%d, %d)" t v et
                    (value_of e);
                now := t;
                model := rest
            | _ -> fail i op "emptiness disagrees")
        | Pop_min -> (
            match !model with
            | [] -> (
                match Sim.Event_queue.pop_min q with
                | _ -> fail i op "pop_min on an empty queue returned"
                | exception Invalid_argument _ -> ())
            | e :: rest ->
                let et, _, _, _ = e.r_key in
                let t = Sim.Event_queue.min_time q in
                let v = Sim.Event_queue.pop_min q in
                if (t, v) <> (et, value_of e) then
                  fail i op "got (%d, %d), want (%d, %d)" t v et
                    (value_of e);
                now := t;
                model := rest)
        | Peek_time ->
            if Sim.Event_queue.peek_time q <> head_time () then
              fail i op "peek_time disagrees"
        | Min_time ->
            let want = Option.value (head_time ()) ~default:max_int in
            if Sim.Event_queue.min_time q <> want then
              fail i op "min_time %d, want %d" (Sim.Event_queue.min_time q)
                want
        | Burst bs ->
            List.iter
              (fun b ->
                apply i
                  (match b with
                  | B_push -> Push !now
                  | B_keyed minor -> Push_keyed (!now, 0, minor)
                  | B_cancellable -> Push_cancellable !now
                  | B_cancel k -> Cancel k
                  | B_pop -> Pop_min))
              bs);
        let n = List.length !model in
        if Sim.Event_queue.length q <> n then
          fail i op "length %d, want %d" (Sim.Event_queue.length q) n;
        if Sim.Event_queue.is_empty q <> (n = 0) then
          fail i op "is_empty disagrees"
      in
      List.iteri apply ops;
      true)

let test_queue_float_values () =
  (* Float values stay boxed in the value array. *)
  let q = Sim.Event_queue.create () in
  List.iter (fun t -> Sim.Event_queue.push q t (float_of_int t /. 2.))
    [ 3; 1; 2 ];
  let vs = List.init 3 (fun _ -> Sim.Event_queue.pop_min q) in
  Alcotest.(check (list (float 0.))) "floats in order" [ 0.5; 1.0; 1.5 ] vs

let test_queue_releases_popped () =
  (* Popped (and cancelled-then-dropped) closures must become garbage
     while the queue itself is still alive. *)
  let q = Sim.Event_queue.create () in
  let n = 300 in
  let w = Weak.create n in
  let handles = Array.make n None in
  for i = 0 to n - 1 do
    let k () = i in
    Weak.set w i (Some k);
    let t = (i * 7919) mod 97 in
    if i mod 3 = 0 then
      handles.(i) <- Some (Sim.Event_queue.push_cancellable q t k)
    else Sim.Event_queue.push q t k
  done;
  let popped = Array.make n false in
  for _ = 1 to n / 2 do
    let k = Sim.Event_queue.pop_min q in
    popped.(k ()) <- true
  done;
  Gc.full_major ();
  for i = 0 to n - 1 do
    if popped.(i) then
      check_bool (Printf.sprintf "popped closure %d collected" i) false
        (Weak.check w i)
  done;
  Array.iteri
    (fun i h ->
      match h with
      | Some h when not popped.(i) -> Sim.Event_queue.cancel q h
      | _ -> ())
    handles;
  while not (Sim.Event_queue.is_empty q) do
    ignore (Sim.Event_queue.pop q)
  done;
  check_int "cancelled entries dropped" max_int (Sim.Event_queue.min_time q);
  Gc.full_major ();
  for i = 0 to n - 1 do
    check_bool (Printf.sprintf "closure %d collected" i) false (Weak.check w i)
  done;
  ignore (Sys.opaque_identity q)

let test_queue_releases_run_values () =
  (* The same for values held in the same-instant run: closures pushed
     at the time of the latest pop, some of them popped mid-run. *)
  let q = Sim.Event_queue.create () in
  Sim.Event_queue.push q 5 (fun () -> -1);
  ignore (Sim.Event_queue.pop_min q ());
  let n = 300 in
  let w = Weak.create n in
  for i = 0 to n - 1 do
    let k () = i in
    Weak.set w i (Some k);
    Sim.Event_queue.push q 5 k
  done;
  let popped = Array.make n false in
  for _ = 1 to n / 2 do
    let k = Sim.Event_queue.pop_min q in
    popped.(k ()) <- true
  done;
  Gc.full_major ();
  for i = 0 to n - 1 do
    check_bool (Printf.sprintf "run closure %d popped" i) (i < n / 2) popped.(i);
    if popped.(i) then
      check_bool (Printf.sprintf "popped run closure %d collected" i) false
        (Weak.check w i)
  done;
  while not (Sim.Event_queue.is_empty q) do
    ignore (Sim.Event_queue.pop_min q ())
  done;
  Gc.full_major ();
  for i = 0 to n - 1 do
    check_bool (Printf.sprintf "run closure %d collected" i) false
      (Weak.check w i)
  done;
  ignore (Sys.opaque_identity q)

(* --- Engine ----------------------------------------------------------- *)

let test_engine_run_until () =
  let e = Sim.Engine.create () in
  let hits = ref [] in
  Sim.Engine.schedule e (Sim.Time.us 10) (fun () -> hits := 10 :: !hits);
  Sim.Engine.schedule e (Sim.Time.us 30) (fun () -> hits := 30 :: !hits);
  Sim.Engine.run ~until:(Sim.Time.us 20) e;
  Alcotest.(check (list int)) "only first fired" [ 10 ] !hits;
  check_int "clock advanced to until" (Sim.Time.us 20) (Sim.Engine.now e);
  Sim.Engine.run e;
  Alcotest.(check (list int)) "second fired" [ 30; 10 ] !hits

let test_engine_nested_schedule () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule e 100 (fun () ->
      log := "outer" :: !log;
      Sim.Engine.schedule e 50 (fun () -> log := "inner" :: !log));
  Sim.Engine.run e;
  Alcotest.(check (list string)) "nested" [ "inner"; "outer" ] !log;
  check_int "final time" 150 (Sim.Engine.now e)

let test_engine_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let h = Sim.Engine.schedule_cancellable e 100 (fun () -> fired := true) in
  Sim.Engine.cancel e h;
  Sim.Engine.run e;
  check_bool "cancelled never fires" false !fired

let test_engine_past_raises () =
  let e = Sim.Engine.create () in
  Sim.Engine.schedule e 100 (fun () ->
      Alcotest.check_raises "past scheduling"
        (Invalid_argument
           "Engine.schedule_at: 50ps is in the past (now 100ps)") (fun () ->
          Sim.Engine.schedule_at e 50 ignore));
  Sim.Engine.run e

(* [Engine.rng] is the LP's own stream: a solo engine and a cluster LP
   created with a seed draw exactly [Rng.create seed]; a cluster LP
   without one draws [Rng.stream ~seed:cluster_seed ~key:id]. *)
let test_engine_rng_stream () =
  let draws r = List.init 16 (fun _ -> Sim.Rng.next64 r) in
  let same name expected got =
    Alcotest.(check (list int64)) name (draws expected) (draws got)
  in
  let solo = Sim.Engine.create ~seed:42L () in
  check_int "solo id" 0 (Sim.Engine.id solo);
  check_bool "one generator per LP" true
    (Sim.Engine.rng solo == Sim.Engine.rng solo);
  same "solo engine" (Sim.Rng.create 42L) (Sim.Engine.rng solo);
  let module Cl = Sim.Engine.Cluster in
  let cl = Cl.create ~seed:7L () in
  let _first = Cl.add_lp cl in
  let seeded = Cl.add_lp ~seed:42L cl in
  let derived = Cl.add_lp cl in
  check_int "LP id is creation order" 2 (Sim.Engine.id derived);
  same "cluster LP with a seed" (Sim.Rng.create 42L) (Sim.Engine.rng seeded);
  same "cluster LP without a seed"
    (Sim.Rng.stream ~seed:7L ~key:2)
    (Sim.Engine.rng derived)

(* --- RNG ---------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Sim.Rng.create 99L and b = Sim.Rng.create 99L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Rng.next64 a) (Sim.Rng.next64 b)
  done

let test_rng_bounds () =
  let r = Sim.Rng.create 7L in
  for _ = 1 to 1000 do
    let v = Sim.Rng.int r 17 in
    check_bool "in range" true (v >= 0 && v < 17);
    let f = Sim.Rng.float r 2.5 in
    check_bool "float range" true (f >= 0. && f < 2.5)
  done

let test_rng_bool_rate () =
  let r = Sim.Rng.create 13L in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Sim.Rng.bool r 0.02 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check_bool "2% +- 0.5%" true (rate > 0.015 && rate < 0.025)

(* --- Stats ----------------------------------------------------------------- *)

let test_histogram_exact_small () =
  let h = Sim.Stats.Histogram.create () in
  List.iter (Sim.Stats.Histogram.add h) [ 1; 2; 3; 4; 5 ];
  check_int "min" 1 (Sim.Stats.Histogram.min h);
  check_int "max" 5 (Sim.Stats.Histogram.max h);
  check_int "p50" 3 (Sim.Stats.Histogram.percentile h 50.);
  check_int "p100" 5 (Sim.Stats.Histogram.percentile h 100.);
  Alcotest.(check (float 0.001)) "mean" 3.0 (Sim.Stats.Histogram.mean h)

let prop_histogram_bounds =
  QCheck.Test.make
    ~name:"histogram percentile error is within bucket resolution"
    ~count:100
    QCheck.(list_of_size (Gen.int_range 1 500) (int_bound 1_000_000))
    (fun samples ->
      samples = []
      ||
      let h = Sim.Stats.Histogram.create () in
      List.iter (Sim.Stats.Histogram.add h) samples;
      let sorted = Array.of_list (List.sort compare samples) in
      List.for_all
        (fun p ->
          (* Same nearest-rank convention as the histogram. *)
          let n = Array.length sorted in
          let rank =
            let r = int_of_float (Float.round (p /. 100. *. float_of_int n)) in
            max 1 (min n r)
          in
          let exact = sorted.(rank - 1) in
          let est = Sim.Stats.Histogram.percentile h p in
          (* within 2x bucket resolution (1.6%) or tiny absolute *)
          abs (est - exact) <= max 4 (exact / 16))
        [ 50.; 90.; 99. ])

let test_histogram_merge () =
  let a = Sim.Stats.Histogram.create () in
  let b = Sim.Stats.Histogram.create () in
  Sim.Stats.Histogram.add a 10;
  Sim.Stats.Histogram.add b 1000;
  Sim.Stats.Histogram.merge a b;
  check_int "count" 2 (Sim.Stats.Histogram.count a);
  check_int "min" 10 (Sim.Stats.Histogram.min a);
  check_int "max" 1000 (Sim.Stats.Histogram.max a)

let test_jain () =
  Alcotest.(check (float 1e-9)) "equal shares" 1.0
    (Sim.Stats.jain_fairness [| 5.; 5.; 5.; 5. |]);
  Alcotest.(check (float 1e-9)) "one hog" 0.25
    (Sim.Stats.jain_fairness [| 4.; 0.; 0.; 0. |]);
  Alcotest.(check (float 1e-9)) "empty" 1.0 (Sim.Stats.jain_fairness [||])

(* --- Trace -------------------------------------------------------------------- *)

let test_trace_registry () =
  let t = Sim.Trace.create () in
  let p1 = Sim.Trace.register t ~group:"proto" "rx" in
  let _p2 = Sim.Trace.register t ~group:"proto" "tx" in
  let _p3 = Sim.Trace.register t ~group:"dma" "desc" in
  check_int "enable group" 2 (Sim.Trace.enable t ~group:"proto" ());
  Sim.Trace.hit p1;
  Sim.Trace.hit p1;
  check_int "hits recorded" 2 (Sim.Trace.hits p1);
  check_int "enable all" 3 (Sim.Trace.enable t ());
  check_int "disable one" 2 (Sim.Trace.disable t ~group:"dma" ~name:"desc" ());
  check_int "registered" 3 (List.length (Sim.Trace.points t))

(* --- Histogram _opt / empty behaviour ----------------------------------- *)

let test_histogram_empty_opt () =
  let h = Sim.Stats.Histogram.create () in
  Alcotest.(check (option int)) "min_opt" None (Sim.Stats.Histogram.min_opt h);
  Alcotest.(check (option int)) "max_opt" None (Sim.Stats.Histogram.max_opt h);
  Alcotest.(check (option int)) "percentile_opt" None
    (Sim.Stats.Histogram.percentile_opt h 50.);
  check_int "legacy min reads 0" 0 (Sim.Stats.Histogram.min h);
  check_int "legacy percentile reads 0" 0
    (Sim.Stats.Histogram.percentile h 99.);
  Sim.Stats.Histogram.add h 7;
  Alcotest.(check (option int)) "min_opt after add" (Some 7)
    (Sim.Stats.Histogram.min_opt h)

let test_histogram_p0_p100 () =
  let h = Sim.Stats.Histogram.create () in
  List.iter (Sim.Stats.Histogram.add h) [ 3; 9; 40; 1000; 123_456 ];
  (* p0 is the observed minimum, p100 the observed maximum — exactly,
     despite log bucketing (results clamp to the observed range). *)
  check_int "p0" 3 (Sim.Stats.Histogram.percentile h 0.);
  check_int "p100" 123_456 (Sim.Stats.Histogram.percentile h 100.);
  Alcotest.(check (option int)) "p0 opt" (Some 3)
    (Sim.Stats.Histogram.percentile_opt h 0.);
  Alcotest.(check (option int)) "p100 opt" (Some 123_456)
    (Sim.Stats.Histogram.percentile_opt h 100.)

let test_histogram_merge_after_reset () =
  let a = Sim.Stats.Histogram.create () in
  let b = Sim.Stats.Histogram.create () in
  Sim.Stats.Histogram.add a 5;
  Sim.Stats.Histogram.add b 50;
  Sim.Stats.Histogram.reset a;
  (* Merging into a reset histogram must not resurrect stale min/max. *)
  Sim.Stats.Histogram.merge a b;
  check_int "count" 1 (Sim.Stats.Histogram.count a);
  check_int "min" 50 (Sim.Stats.Histogram.min a);
  check_int "max" 50 (Sim.Stats.Histogram.max a);
  (* Merging an empty (reset) source is a no-op. *)
  Sim.Stats.Histogram.reset b;
  Sim.Stats.Histogram.merge a b;
  check_int "count after empty merge" 1 (Sim.Stats.Histogram.count a);
  check_int "min after empty merge" 50 (Sim.Stats.Histogram.min a)

let suite =
  [
    Alcotest.test_case "time units" `Quick test_time_units;
    Alcotest.test_case "frequency arithmetic" `Quick test_freq_exact;
    Alcotest.test_case "invalid frequency" `Quick test_freq_invalid;
    Alcotest.test_case "event queue ordering" `Quick test_queue_ordering;
    Alcotest.test_case "event queue FIFO ties" `Quick test_queue_fifo_ties;
    Alcotest.test_case "event queue cancel" `Quick test_queue_cancel;
    QCheck_alcotest.to_alcotest prop_queue_sorted;
    QCheck_alcotest.to_alcotest prop_queue_model;
    Alcotest.test_case "event queue float values" `Quick
      test_queue_float_values;
    Alcotest.test_case "event queue releases popped values" `Quick
      test_queue_releases_popped;
    Alcotest.test_case "event queue releases run values" `Quick
      test_queue_releases_run_values;
    Alcotest.test_case "engine run until" `Quick test_engine_run_until;
    Alcotest.test_case "engine nested scheduling" `Quick
      test_engine_nested_schedule;
    Alcotest.test_case "engine cancel" `Quick test_engine_cancel;
    Alcotest.test_case "engine rejects the past" `Quick
      test_engine_past_raises;
    Alcotest.test_case "engine rng is the LP's stream" `Quick
      test_engine_rng_stream;
    Alcotest.test_case "rng determinism" `Quick test_rng_deterministic;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng bernoulli rate" `Quick test_rng_bool_rate;
    Alcotest.test_case "histogram small values exact" `Quick
      test_histogram_exact_small;
    QCheck_alcotest.to_alcotest prop_histogram_bounds;
    Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
    Alcotest.test_case "histogram empty _opt queries" `Quick
      test_histogram_empty_opt;
    Alcotest.test_case "histogram p0/p100" `Quick test_histogram_p0_p100;
    Alcotest.test_case "histogram merge after reset" `Quick
      test_histogram_merge_after_reset;
    Alcotest.test_case "jain fairness index" `Quick test_jain;
    Alcotest.test_case "tracepoint registry" `Quick test_trace_registry;
  ]
