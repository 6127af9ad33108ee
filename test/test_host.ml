(* Host substrate tests: CPU accounting, payload buffers, framing,
   KV protocol. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Host CPU ----------------------------------------------------------- *)

let test_cpu_fifo () =
  let e = Sim.Engine.create () in
  let cpu = Host.Host_cpu.create e ~cores:1 () in
  let core = Host.Host_cpu.core cpu 0 in
  let log = ref [] in
  Host.Host_cpu.exec core ~cycles:2000 (fun () ->
      log := ("a", Sim.Engine.now e) :: !log);
  Host.Host_cpu.exec core ~cycles:2000 (fun () ->
      log := ("b", Sim.Engine.now e) :: !log);
  Sim.Engine.run e;
  (* 2000 cycles at 2 GHz = 1 us each, in order. *)
  Alcotest.(check (list (pair string int)))
    "fifo with correct timing"
    [ ("b", Sim.Time.us 2); ("a", Sim.Time.us 1) ]
    !log

let test_cpu_accounting () =
  let e = Sim.Engine.create () in
  let cpu = Host.Host_cpu.create e ~cores:2 () in
  Host.Host_cpu.exec (Host.Host_cpu.core cpu 0) ~category:"app" ~cycles:100
    ignore;
  Host.Host_cpu.exec (Host.Host_cpu.core cpu 1) ~category:"app" ~cycles:50
    ignore;
  Host.Host_cpu.exec (Host.Host_cpu.core cpu 0) ~category:"stack" ~cycles:10
    ignore;
  Sim.Engine.run e;
  Alcotest.(check (list (pair string int)))
    "per category"
    [ ("app", 150); ("stack", 10) ]
    (Host.Host_cpu.cycles_by_category cpu);
  check_int "total" 160 (Host.Host_cpu.total_cycles cpu)

let test_cpu_cores_independent () =
  let e = Sim.Engine.create () in
  let cpu = Host.Host_cpu.create e ~cores:2 () in
  let t0 = ref 0 and t1 = ref 0 in
  Host.Host_cpu.exec (Host.Host_cpu.core cpu 0) ~cycles:20_000 (fun () ->
      t0 := Sim.Engine.now e);
  Host.Host_cpu.exec (Host.Host_cpu.core cpu 1) ~cycles:20_000 (fun () ->
      t1 := Sim.Engine.now e);
  Sim.Engine.run e;
  check_int "parallel cores" !t0 !t1

(* --- Payload buffer ------------------------------------------------------- *)

let test_payload_wraparound () =
  let b = Host.Payload_buf.create ~size:16 in
  let data = Bytes.of_string "0123456789abcdef" in
  (* Write 10 bytes at stream offset 12: wraps at 16. *)
  Host.Payload_buf.write b ~off:12 ~src:data ~src_off:0 ~len:10;
  Alcotest.(check string)
    "wrapped readback" "0123456789"
    (Bytes.to_string (Host.Payload_buf.read b ~off:12 ~len:10))

let prop_payload_stream_semantics =
  QCheck.Test.make
    ~name:"payload buffer: non-overlapping in-window writes read back"
    ~count:200
    QCheck.(pair (int_bound 1000) (list_of_size (Gen.return 8) (int_bound 30)))
    (fun (base, lens) ->
      let size = 256 in
      let b = Host.Payload_buf.create ~size in
      (* Sequential stream writes within one window always read back. *)
      let off = ref base in
      let chunks =
        List.map
          (fun l ->
            let l = max 1 l in
            let data =
              Bytes.init l (fun i -> Char.chr ((!off + i) land 0xFF))
            in
            Host.Payload_buf.write b ~off:!off ~src:data ~src_off:0 ~len:l;
            let this = (!off, data) in
            off := !off + l;
            this)
          lens
      in
      (* Total must fit in the ring for all chunks to be intact. *)
      !off - base <= size
      && List.for_all
           (fun (o, data) ->
             Bytes.equal data
               (Host.Payload_buf.read b ~off:o ~len:(Bytes.length data)))
           chunks)

let prop_payload_growth_matches_flat_ring =
  (* A ring bigger than the initial 4 KiB backing (and not a multiple
     of it) agrees with a flat zero-filled ring under random writes and
     reads, wrapping ones included. *)
  QCheck.Test.make ~name:"payload buffer: growing ring = flat ring"
    ~count:100
    QCheck.(
      list_of_size (Gen.int_range 1 40)
        (triple bool (int_bound 100_000) (int_bound 6_000)))
    (fun ops ->
      let size = 20_000 in
      let b = Host.Payload_buf.create ~size in
      let flat = Bytes.make size '\000' in
      let ring o = ((o mod size) + size) mod size in
      List.for_all
        (fun (is_write, off, len) ->
          if is_write then begin
            let src = Bytes.init len (fun i -> Char.chr ((off + i) land 0xFF)) in
            Host.Payload_buf.write b ~off ~src ~src_off:0 ~len;
            for i = 0 to len - 1 do
              Bytes.set flat (ring (off + i)) (Bytes.get src i)
            done;
            true
          end
          else
            Bytes.equal
              (Host.Payload_buf.read b ~off ~len)
              (Bytes.init len (fun i -> Bytes.get flat (ring (off + i)))))
        ops)

let test_payload_oversize_rejected () =
  let b = Host.Payload_buf.create ~size:8 in
  Alcotest.check_raises "oversize write"
    (Invalid_argument "Payload_buf.write: larger than buffer") (fun () ->
      Host.Payload_buf.write b ~off:0 ~src:(Bytes.create 9) ~src_off:0 ~len:9)

(* --- Framing ------------------------------------------------------------------ *)

let test_framing_simple () =
  let d = Host.Framing.create () in
  Host.Framing.push d (Host.Framing.encode (Bytes.of_string "hello"));
  Alcotest.(check (option string))
    "one message" (Some "hello")
    (Option.map Bytes.to_string (Host.Framing.next d));
  Alcotest.(check (option string)) "empty" None
    (Option.map Bytes.to_string (Host.Framing.next d))

let prop_framing_chunking_invariant =
  QCheck.Test.make
    ~name:"framing: messages survive arbitrary stream chunking" ~count:200
    QCheck.(pair (list (string_of_size (Gen.int_range 0 50))) (int_range 1 7))
    (fun (msgs, chunk) ->
      let stream =
        Bytes.concat Bytes.empty
          (List.map (fun m -> Host.Framing.encode (Bytes.of_string m)) msgs)
      in
      let d = Host.Framing.create () in
      let n = Bytes.length stream in
      let i = ref 0 in
      let out = ref [] in
      while !i < n do
        let l = min chunk (n - !i) in
        Host.Framing.push d (Bytes.sub stream !i l);
        i := !i + l;
        Host.Framing.iter_available d (fun m ->
            out := Bytes.to_string m :: !out)
      done;
      List.rev !out = msgs)

let test_framing_buffered () =
  let d = Host.Framing.create () in
  Host.Framing.push d (Bytes.of_string "\000\000");
  check_int "partial header buffered" 2 (Host.Framing.buffered d)

(* Model check of the decoder's window on large and empty messages:
   0 B up to 200 KiB payloads, so the window doubles past its initial
   4 KiB and slides; chunk sizes from 1 B (splits inside the 4-byte
   header) to whole-stream pushes; and pushes interleaved with single
   [next] calls and full drains. After every step [buffered] must be
   the bytes pushed minus the bytes consumed, and the messages must
   come out whole and in order. *)
let prop_framing_window_model =
  let open QCheck.Gen in
  let size =
    frequency
      [
        (2, return 0);
        (4, int_bound 50);
        (1, return 1448);
        (1, return 65536);
        (1, return (200 * 1024));
      ]
  in
  let gen =
    let* sizes = list_size (int_bound 10) size in
    let* seed = int in
    return (sizes, seed)
  in
  QCheck.Test.make ~name:"framing: window model with 0 B to 200 KiB messages"
    ~count:60
    (QCheck.make
       ~print:(fun (sizes, seed) ->
         Printf.sprintf "sizes [%s], seed %d"
           (String.concat "; " (List.map string_of_int sizes))
           seed)
       gen)
    (fun (sizes, seed) ->
      let rng = Random.State.make [| seed |] in
      let msgs =
        List.mapi
          (fun k n -> Bytes.init n (fun i -> Char.chr ((i * 31 + k) land 0xFF)))
          sizes
      in
      let stream = Bytes.concat Bytes.empty (List.map Host.Framing.encode msgs) in
      let d = Host.Framing.create () in
      let n = Bytes.length stream in
      let pushed = ref 0 and consumed = ref 0 in
      let want = ref msgs and ok = ref true in
      let take m =
        consumed := !consumed + Host.Framing.encoded_len (Bytes.length m);
        match !want with
        | w :: rest when Bytes.equal w m -> want := rest
        | _ -> ok := false
      in
      let check () =
        if Host.Framing.buffered d <> !pushed - !consumed then ok := false
      in
      while !pushed < n && !ok do
        let left = n - !pushed in
        let l =
          min left
            (match Random.State.int rng 5 with
            | 0 -> 1 + Random.State.int rng 3
            | 1 -> 1 + Random.State.int rng 7
            | 2 -> 1448
            | 3 -> 4096 + Random.State.int rng 70_000
            | _ -> left)
        in
        Host.Framing.push d (Bytes.sub stream !pushed l);
        pushed := !pushed + l;
        check ();
        (match Random.State.int rng 3 with
        | 0 -> ()
        | 1 -> Option.iter take (Host.Framing.next d)
        | _ -> Host.Framing.iter_available d take);
        check ()
      done;
      Host.Framing.iter_available d take;
      check ();
      !ok && !want = [] && Host.Framing.buffered d = 0)

(* Feeding a header one byte at a time never yields a message early. *)
let test_framing_split_header () =
  let d = Host.Framing.create () in
  let wire = Host.Framing.encode (Bytes.of_string "xyz") in
  for i = 0 to Bytes.length wire - 2 do
    Host.Framing.push d (Bytes.sub wire i 1);
    Alcotest.(check (option string))
      (Printf.sprintf "nothing after %d bytes" (i + 1))
      None
      (Option.map Bytes.to_string (Host.Framing.next d));
    check_int "buffered" (i + 1) (Host.Framing.buffered d)
  done;
  Host.Framing.push d (Bytes.sub wire (Bytes.length wire - 1) 1);
  Alcotest.(check (option string)) "whole message" (Some "xyz")
    (Option.map Bytes.to_string (Host.Framing.next d));
  check_int "nothing left" 0 (Host.Framing.buffered d)

(* --- KV protocol ------------------------------------------------------------------ *)

let test_kv_request_roundtrip () =
  let reqs =
    [
      Host.App_kv.Get (Bytes.of_string "key1");
      Host.App_kv.Set (Bytes.of_string "key2", Bytes.of_string "value2");
      Host.App_kv.Set (Bytes.of_string "", Bytes.of_string "");
    ]
  in
  List.iter
    (fun r ->
      match Host.App_kv.decode_request (Host.App_kv.encode_request r) with
      | Some r' -> check_bool "roundtrip" true (r = r')
      | None -> Alcotest.fail "decode failed")
    reqs

let test_kv_response_roundtrip () =
  let resps =
    [
      Host.App_kv.Value (Bytes.of_string "v");
      Host.App_kv.Stored;
      Host.App_kv.Miss;
      Host.App_kv.Bad_request;
    ]
  in
  List.iter
    (fun r ->
      match Host.App_kv.decode_response (Host.App_kv.encode_response r) with
      | Some r' -> check_bool "roundtrip" true (r = r')
      | None -> Alcotest.fail "decode failed")
    resps

let prop_kv_roundtrip =
  QCheck.Test.make ~name:"kv: random request roundtrip" ~count:200
    QCheck.(pair (string_of_size (Gen.int_range 0 64))
              (string_of_size (Gen.int_range 0 256)))
    (fun (k, v) ->
      let r = Host.App_kv.Set (Bytes.of_string k, Bytes.of_string v) in
      Host.App_kv.decode_request (Host.App_kv.encode_request r) = Some r)

let test_kv_garbage_rejected () =
  Alcotest.(check (option reject)) "short" None
    (Host.App_kv.decode_request (Bytes.of_string "xx"));
  Alcotest.(check bool) "bad opcode" true
    (Host.App_kv.decode_request
       (Bytes.cat (Bytes.of_string "\x09\x00\x00")
          (Bytes.of_string "\x00\x00\x00\x00"))
    = None)

(* --- RPC stats -------------------------------------------------------------------- *)

let test_rpc_stats_window () =
  let e = Sim.Engine.create () in
  let s = Host.Rpc.Stats.create e in
  Host.Rpc.Stats.record_op s ~bytes:100;  (* before measuring: dropped *)
  Host.Rpc.Stats.start_measuring s;
  Host.Rpc.Stats.record_op s ~bytes:100;
  Host.Rpc.Stats.record_rtt s (Sim.Time.us 5);
  check_int "ops in window only" 1 (Host.Rpc.Stats.ops s);
  Alcotest.(check (float 0.2)) "rtt recorded" 5.0
    (Host.Rpc.Stats.rtt_percentile_us s 50.)

let test_rpc_stats_fairness () =
  let e = Sim.Engine.create () in
  let s = Host.Rpc.Stats.create e in
  Host.Rpc.Stats.start_measuring s;
  for _ = 1 to 10 do
    Host.Rpc.Stats.record_conn_op s ~conn:0 ~bytes:1
  done;
  for _ = 1 to 10 do
    Host.Rpc.Stats.record_conn_op s ~conn:1 ~bytes:1
  done;
  Alcotest.(check (float 1e-6)) "perfectly fair" 1.0
    (Host.Rpc.Stats.jain_index s)

let suite =
  [
    Alcotest.test_case "cpu FIFO timing" `Quick test_cpu_fifo;
    Alcotest.test_case "cpu accounting" `Quick test_cpu_accounting;
    Alcotest.test_case "cpu cores run in parallel" `Quick
      test_cpu_cores_independent;
    Alcotest.test_case "payload buffer wraparound" `Quick
      test_payload_wraparound;
    QCheck_alcotest.to_alcotest prop_payload_stream_semantics;
    QCheck_alcotest.to_alcotest prop_payload_growth_matches_flat_ring;
    Alcotest.test_case "payload oversize rejected" `Quick
      test_payload_oversize_rejected;
    Alcotest.test_case "framing simple" `Quick test_framing_simple;
    QCheck_alcotest.to_alcotest prop_framing_chunking_invariant;
    Alcotest.test_case "framing partial header" `Quick test_framing_buffered;
    QCheck_alcotest.to_alcotest prop_framing_window_model;
    Alcotest.test_case "framing header split bytewise" `Quick
      test_framing_split_header;
    Alcotest.test_case "kv request roundtrip" `Quick test_kv_request_roundtrip;
    Alcotest.test_case "kv response roundtrip" `Quick
      test_kv_response_roundtrip;
    QCheck_alcotest.to_alcotest prop_kv_roundtrip;
    Alcotest.test_case "kv rejects garbage" `Quick test_kv_garbage_rejected;
    Alcotest.test_case "rpc stats measurement window" `Quick
      test_rpc_stats_window;
    Alcotest.test_case "rpc stats fairness" `Quick test_rpc_stats_fairness;
  ]

(* Open-loop generator: exercised against a FlexTOE pair elsewhere;
   here we check the Poisson arrival machinery's rate accuracy against
   a fast local server. *)
let test_open_loop_rate () =
  let engine = Sim.Engine.create () in
  let fabric = Netsim.Fabric.create engine () in
  let a = Flextoe.create_node engine ~fabric ~ip:0x0A000001 () in
  let b = Flextoe.create_node engine ~fabric ~ip:0x0A000002 () in
  let stats = Host.Rpc.Stats.create engine in
  Host.Rpc.server ~endpoint:(Flextoe.endpoint a) ~port:7 ~app_cycles:100
    ~handler:Host.Rpc.echo_handler ();
  ignore
    (Host.Rpc.open_loop_client ~endpoint:(Flextoe.endpoint b) ~engine
       ~server_ip:0x0A000001 ~server_port:7 ~conns:8 ~rate_per_sec:100_000.
       ~req_bytes:64 ~stats ());
  Sim.Engine.run ~until:(Sim.Time.ms 10) engine;
  Host.Rpc.Stats.start_measuring stats;
  Sim.Engine.run ~until:(Sim.Time.ms 110) engine;
  (* 100k req/s over 100 ms = ~10k responses. *)
  let ops = Host.Rpc.Stats.ops stats in
  Alcotest.(check bool)
    (Printf.sprintf "open-loop rate ~100k/s (got %d in 100ms)" ops)
    true
    (ops > 9_000 && ops < 11_000)

let open_loop_suite =
  [ Alcotest.test_case "open-loop Poisson rate" `Quick test_open_loop_rate ]
