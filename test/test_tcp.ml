(* TCP substrate tests: sequence arithmetic, checksums, wire format,
   flows, and both reassembly schemes. *)

module S = Tcp.Segment
module Seq32 = Tcp.Seq32

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Seq32 ------------------------------------------------------------ *)

let test_seq_wraparound () =
  let near_max = Seq32.of_int 0xFFFF_FFF0 in
  let wrapped = Seq32.add near_max 0x20 in
  check_int "wraps" 0x10 wrapped;
  check_bool "wrapped is after" true (Seq32.gt wrapped near_max);
  check_int "diff across wrap" 0x20 (Seq32.diff wrapped near_max);
  check_int "negative diff" (-0x20) (Seq32.diff near_max wrapped)

let test_seq_window () =
  check_bool "inside" true (Seq32.in_window 5 ~base:0 ~size:10);
  check_bool "at base" true (Seq32.in_window 0 ~base:0 ~size:10);
  check_bool "past end" false (Seq32.in_window 10 ~base:0 ~size:10);
  check_bool "window across wrap" true
    (Seq32.in_window 3 ~base:0xFFFF_FFF8 ~size:16)

let prop_seq_diff_inverse =
  QCheck.Test.make ~name:"seq32: diff (add a n) a = n for |n| < 2^31"
    ~count:500
    QCheck.(pair (int_bound 0xFFFFFFF) (int_range (-1000000) 1000000))
    (fun (a, n) ->
      let a = Seq32.of_int (a * 16) in
      Seq32.diff (Seq32.add a n) a = n)

let prop_seq_total_order_local =
  QCheck.Test.make ~name:"seq32: lt is antisymmetric for close values"
    ~count:500
    QCheck.(pair int int)
    (fun (a, b) ->
      let a = Seq32.of_int a and b = Seq32.of_int b in
      if a = b then (not (Seq32.lt a b)) && not (Seq32.gt a b)
      else Seq32.lt a b <> Seq32.lt b a || Seq32.diff a b = -0x8000_0000)

(* --- Checksum ----------------------------------------------------------- *)

let test_internet_checksum_rfc1071 () =
  (* Classic example: 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d *)
  let b = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  check_int "rfc1071 example" 0x220d (Tcp.Checksum.internet b ~off:0 ~len:8)

let test_checksum_verification_roundtrip () =
  let b = Bytes.of_string "\x45\x00\x00\x30\x44\x22\x40\x00\x80\x06\x00\x00\x8c\x7c\x19\xac\xae\x24\x1e\x2b" in
  let csum = Tcp.Checksum.internet b ~off:0 ~len:20 in
  Bytes.set b 10 (Char.chr (csum lsr 8));
  Bytes.set b 11 (Char.chr (csum land 0xFF));
  check_int "verifies to zero" 0 (Tcp.Checksum.internet b ~off:0 ~len:20)

let test_crc32_vector () =
  (* CRC-32 of "123456789" is 0xCBF43926. *)
  let b = Bytes.of_string "123456789" in
  check_int "check vector" 0xCBF43926 (Tcp.Checksum.crc32 b ~off:0 ~len:9)

let test_crc32_ints_matches_bytes () =
  let b = Bytes.of_string "\x0A\x00\x00\x01\x0A\x00\x00\x02" in
  check_int "int form agrees"
    (Tcp.Checksum.crc32 b ~off:0 ~len:8)
    (Tcp.Checksum.crc32_ints [ 0x0A000001; 0x0A000002 ])

(* Byte-at-a-time reference for [Checksum.ones_complement] and
   [Checksum.finish]: the RFC 1071 definition, big-endian 16-bit words
   with an odd final byte zero-padded, carries folded one at a time.
   The word-at-a-time sum must agree with it after [finish]. *)
let ref_ones_complement buf ~off ~len ~init =
  let sum = ref init in
  for k = 0 to len - 1 do
    let b = Char.code (Bytes.get buf (off + k)) in
    sum := !sum + if k land 1 = 0 then b lsl 8 else b
  done;
  !sum

let ref_finish sum =
  let s = ref sum in
  while !s > 0xFFFF do
    s := (!s land 0xFFFF) + (!s lsr 16)
  done;
  lnot !s land 0xFFFF

let finish_agrees buf ~off ~len ~init =
  Tcp.Checksum.finish (Tcp.Checksum.ones_complement buf ~off ~len ~init)
  = ref_finish (ref_ones_complement buf ~off ~len ~init)

(* Random, all-0x00 and all-0xFF buffers (the last two hit the
   0 vs 0xFFFF residue edge), offsets 0-7, any length including odd
   ones, and [init] values up to pseudo-header size and beyond. *)
let csum_case_gen =
  let open QCheck.Gen in
  let* n = frequency [ (3, int_bound 80); (1, int_range 80 3000) ] in
  let* fill = frequency [ (3, return `Random); (1, return `Zero); (1, return `Ones) ] in
  let* seed = int in
  let rng = Random.State.make [| seed |] in
  let buf =
    Bytes.init n (fun _ ->
        match fill with
        | `Random -> Char.chr (Random.State.int rng 256)
        | `Zero -> '\x00'
        | `Ones -> '\xFF')
  in
  let* off = int_bound (min 7 n) in
  let* len = int_bound (n - off) in
  let* init =
    frequency [ (1, return 0); (3, int_bound 0x3FFFF); (1, int_bound (1 lsl 40)) ]
  in
  return (buf, off, len, init)

let prop_checksum_matches_bytewise =
  QCheck.Test.make
    ~name:"checksum: word-at-a-time sum agrees with the byte-wise one"
    ~count:2000
    (QCheck.make
       ~print:(fun (b, off, len, init) ->
         Printf.sprintf "len %d, off %d, sum len %d, init %d: %S"
           (Bytes.length b) off len init (Bytes.to_string b))
       csum_case_gen)
    (fun (buf, off, len, init) -> finish_agrees buf ~off ~len ~init)

let test_checksum_residue_edges () =
  List.iter
    (fun n ->
      let zeros = Bytes.make n '\x00' and ones = Bytes.make n '\xFF' in
      List.iter
        (fun off ->
          let len = n - off in
          check_bool (Printf.sprintf "zeros n=%d off=%d" n off) true
            (finish_agrees zeros ~off ~len ~init:0);
          check_bool (Printf.sprintf "ones n=%d off=%d" n off) true
            (finish_agrees ones ~off ~len ~init:0);
          check_bool (Printf.sprintf "ones+init n=%d off=%d" n off) true
            (finish_agrees ones ~off ~len ~init:0xFFFF))
        [ 0; 1; 3; 7 ])
    [ 8; 9; 31; 32; 33; 64; 1448; 1449 ];
  check_int "all-zero sums to checksum 0xFFFF" 0xFFFF
    (Tcp.Checksum.internet (Bytes.make 40 '\x00') ~off:0 ~len:40);
  check_int "all-0xFF sums to checksum 0" 0
    (Tcp.Checksum.internet (Bytes.make 40 '\xFF') ~off:0 ~len:40)

(* Out-of-range calls behave as the byte-wise sum always did: an empty
   or negative length returns [init] untouched, whatever [off]; any
   other range raises [Invalid_argument] exactly when it leaves the
   buffer. *)
let prop_checksum_range_behaviour =
  QCheck.Test.make ~name:"checksum: empty and out-of-range calls" ~count:1000
    QCheck.(
      quad (int_bound 40) (int_range (-12) 52) (int_range (-8) 52)
        (int_range (-100) 100))
    (fun (n, off, len, init) ->
      let buf = Bytes.make n '\x5A' in
      let got =
        match Tcp.Checksum.ones_complement buf ~off ~len ~init with
        | s -> Some s
        | exception Invalid_argument _ -> None
      in
      if len <= 0 then got = Some init
      else if off < 0 || off + len > n then got = None
      else got <> None && finish_agrees buf ~off ~len ~init:(abs init))

(* [helper_csum_fixup] on a frame whose IP total length is below 20:
   the TCP range is empty, so its checksum is [finish] of the bare
   pseudo-header sum, with a negative length. *)
let test_csum_fixup_short_ip_length () =
  let module I = Flextoe.Bpf_insn in
  let seg =
    S.make ~payload:(Bytes.of_string "payload!") ~src_ip:1 ~dst_ip:2
      ~src_port:3 ~dst_port:4 ~seq:10 ~ack_seq:20 ()
  in
  let prog =
    match
      Flextoe.Ebpf.load_unverified
        [| I.Call I.helper_csum_fixup; I.Alu64 (I.Add, 0, I.Imm 2); I.Exit |]
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let set16 b o v =
    Bytes.set b o (Char.chr ((v lsr 8) land 0xFF));
    Bytes.set b (o + 1) (Char.chr (v land 0xFF))
  in
  let ip = Tcp.Wire.off_ip and tcp = Tcp.Wire.off_tcp in
  List.iter
    (fun ip_len ->
      let b = Tcp.Wire.encode (S.make_frame ~src_mac:1 ~dst_mac:2 seg) in
      set16 b (ip + 2) ip_len;
      let out = Flextoe.Ebpf.run prog ~maps:[||] ~now_ns:0L ~packet:b in
      check_int
        (Printf.sprintf "helper succeeded (ip len %d)" ip_len)
        I.xdp_pass out.Flextoe.Ebpf.ret;
      set16 b (ip + 10) 0;
      set16 b (ip + 10)
        (ref_finish (ref_ones_complement b ~off:ip ~len:20 ~init:0));
      set16 b (tcp + 16) 0;
      let length = ip_len - 20 in
      set16 b (tcp + 16)
        (ref_finish
           (Tcp.Checksum.pseudo_header_sum ~src_ip:1 ~dst_ip:2 ~protocol:6
              ~length));
      Alcotest.(check string)
        (Printf.sprintf "packet after fixup (ip len %d)" ip_len)
        (Bytes.to_string b)
        (Bytes.to_string out.Flextoe.Ebpf.packet))
    [ 0; 7; 19 ]

(* --- Flow ------------------------------------------------------------------ *)

let test_flow_reverse () =
  let f = Tcp.Flow.v ~local_ip:1 ~local_port:10 ~remote_ip:2 ~remote_port:20 in
  let r = Tcp.Flow.reverse f in
  check_int "rev local" 2 r.Tcp.Flow.local_ip;
  check_bool "double reverse" true (Tcp.Flow.equal f (Tcp.Flow.reverse r))

let test_flow_group_stable () =
  let f = Tcp.Flow.v ~local_ip:0x0A000001 ~local_port:7 ~remote_ip:0x0A000002
      ~remote_port:40000 in
  let g1 = Tcp.Flow.flow_group f ~groups:4 in
  let g2 = Tcp.Flow.flow_group f ~groups:4 in
  check_int "deterministic" g1 g2;
  check_bool "in range" true (g1 >= 0 && g1 < 4)

let test_flow_of_segment_rx () =
  let seg =
    S.make ~src_ip:2 ~dst_ip:1 ~src_port:20 ~dst_port:10 ~seq:0 ~ack_seq:0 ()
  in
  let f = Tcp.Flow.of_segment_rx seg in
  check_int "local is dst" 1 f.Tcp.Flow.local_ip;
  check_int "remote is src" 2 f.Tcp.Flow.remote_ip

(* --- Wire format -------------------------------------------------------------- *)

let frame_gen =
  let open QCheck.Gen in
  let* src_ip = int_bound 0xFFFFFFF in
  let* dst_ip = int_bound 0xFFFFFFF in
  let* src_port = int_range 1 65535 in
  let* dst_port = int_range 1 65535 in
  let* seq = int_bound 0xFFFFFFF in
  let* ack_seq = int_bound 0xFFFFFFF in
  let* window = int_bound 0xFFFF in
  let* syn = bool and* ack = bool and* fin = bool and* psh = bool
  and* ece = bool and* cwr = bool in
  let* with_mss = bool and* with_ts = bool in
  let* vlan = opt (int_bound 0xFFF) in
  let* ecn = oneofl [ S.Not_ect; S.Ect0; S.Ect1; S.Ce ] in
  let* payload_len = int_bound 64 in
  let* payload_byte = char in
  let seg =
    S.make
      ~flags:{ S.no_flags with S.syn; ack; fin; psh; ece; cwr }
      ~window
      ~options:
        {
          S.mss = (if with_mss then Some 1448 else None);
          ts = (if with_ts then Some (123456, 654321) else None);
        }
      ~payload:(Bytes.make payload_len payload_byte)
      ~src_ip ~dst_ip ~src_port ~dst_port ~seq ~ack_seq ()
  in
  let* src_mac = int_bound 0xFFFFFF in
  let* dst_mac = int_bound 0xFFFFFF in
  return (S.make_frame ~vlan ~ecn ~src_mac ~dst_mac seg)

let frame_eq (a : S.frame) (b : S.frame) =
  a.S.src_mac = b.S.src_mac && a.S.dst_mac = b.S.dst_mac
  && a.S.vlan = b.S.vlan && a.S.ecn = b.S.ecn
  &&
  let x = a.S.seg and y = b.S.seg in
  x.S.src_ip = y.S.src_ip && x.S.dst_ip = y.S.dst_ip
  && x.S.src_port = y.S.src_port && x.S.dst_port = y.S.dst_port
  && x.S.seq = y.S.seq && x.S.ack_seq = y.S.ack_seq && x.S.flags = y.S.flags
  && x.S.window = y.S.window && x.S.options = y.S.options
  && Bytes.equal x.S.payload y.S.payload

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"wire: decode (encode frame) = frame" ~count:500
    (QCheck.make frame_gen) (fun frame ->
      match Tcp.Wire.decode (Tcp.Wire.encode frame) with
      | Ok decoded -> frame_eq frame decoded
      | Error _ -> false)

let test_wire_length () =
  let seg =
    S.make ~payload:(Bytes.make 100 'x') ~src_ip:1 ~dst_ip:2 ~src_port:3
      ~dst_port:4 ~seq:0 ~ack_seq:0 ()
  in
  let frame = S.make_frame ~src_mac:1 ~dst_mac:2 seg in
  check_int "wire length" (14 + 20 + 20 + 100)
    (Bytes.length (Tcp.Wire.encode frame));
  check_int "frame_wire_len agrees" (S.frame_wire_len frame)
    (Bytes.length (Tcp.Wire.encode frame))

let test_wire_detects_corruption () =
  let seg =
    S.make ~payload:(Bytes.of_string "hello") ~src_ip:1 ~dst_ip:2 ~src_port:3
      ~dst_port:4 ~seq:0 ~ack_seq:0 ()
  in
  let b = Tcp.Wire.encode (S.make_frame ~src_mac:1 ~dst_mac:2 seg) in
  (* Flip a payload byte: TCP checksum must catch it. *)
  let last = Bytes.length b - 1 in
  Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0xFF));
  (match Tcp.Wire.decode b with
  | Error Tcp.Wire.Bad_tcp_checksum -> ()
  | Ok _ -> Alcotest.fail "corruption not detected"
  | Error e -> Alcotest.failf "wrong error: %a" Tcp.Wire.pp_error e);
  check_bool "ignorable" true
    (Result.is_ok (Tcp.Wire.decode ~verify_checksums:false b))

let test_wire_truncated () =
  match Tcp.Wire.decode (Bytes.make 10 '\000') with
  | Error (Tcp.Wire.Truncated _) -> ()
  | _ -> Alcotest.fail "expected truncation error"

let test_wire_bad_ethertype () =
  let b = Bytes.make 64 '\000' in
  Bytes.set b 12 '\x86';
  Bytes.set b 13 '\xdd';
  match Tcp.Wire.decode b with
  | Error (Tcp.Wire.Bad_ethertype 0x86dd) -> ()
  | _ -> Alcotest.fail "expected ethertype error"

let test_wire_fixup () =
  let seg =
    S.make ~payload:(Bytes.of_string "data") ~src_ip:1 ~dst_ip:2 ~src_port:3
      ~dst_port:4 ~seq:10 ~ack_seq:20 ()
  in
  let b = Tcp.Wire.encode (S.make_frame ~src_mac:1 ~dst_mac:2 seg) in
  (* Patch the destination port, then fix up checksums. *)
  Bytes.set b (Tcp.Wire.off_tcp_dport + 1) '\x09';
  Tcp.Wire.fixup_tcp_checksum b;
  match Tcp.Wire.decode b with
  | Ok f -> check_int "patched port decodes" 9 f.S.seg.S.dst_port
  | Error e -> Alcotest.failf "fixup broken: %a" Tcp.Wire.pp_error e

(* --- Reassembly (single interval, FlexTOE) ------------------------------------- *)

let mk_reasm () = Tcp.Reassembly.create ~next:1000

let test_reasm_in_order () =
  let r = mk_reasm () in
  (match Tcp.Reassembly.process r ~seq:1000 ~len:100 ~window:10000 with
  | Tcp.Reassembly.Accept { trim = 0; len = 100; advance = 100;
                            filled_hole = false } -> ()
  | _ -> Alcotest.fail "in-order accept expected");
  check_int "next advanced" 1100 (Tcp.Reassembly.next r)

let test_reasm_duplicate () =
  let r = mk_reasm () in
  ignore (Tcp.Reassembly.process r ~seq:1000 ~len:100 ~window:10000);
  match Tcp.Reassembly.process r ~seq:1000 ~len:100 ~window:10000 with
  | Tcp.Reassembly.Duplicate -> ()
  | _ -> Alcotest.fail "duplicate expected"

let test_reasm_head_trim () =
  let r = mk_reasm () in
  ignore (Tcp.Reassembly.process r ~seq:1000 ~len:100 ~window:10000);
  (* Retransmission overlapping old + new data. *)
  match Tcp.Reassembly.process r ~seq:1050 ~len:100 ~window:10000 with
  | Tcp.Reassembly.Accept { trim = 50; len = 50; advance = 50; _ } -> ()
  | _ -> Alcotest.fail "head trim expected"

let test_reasm_ooo_then_fill () =
  let r = mk_reasm () in
  (* Hole at 1000..1100, segment at 1100. *)
  (match Tcp.Reassembly.process r ~seq:1100 ~len:100 ~window:10000 with
  | Tcp.Reassembly.Ooo_accept { trim = 0; off = 100; len = 100 } -> ()
  | _ -> Alcotest.fail "ooo accept expected");
  check_bool "hole tracked" true (Tcp.Reassembly.has_hole r);
  check_int "next unchanged" 1000 (Tcp.Reassembly.next r);
  (* Fill the hole: next jumps past the merged interval. *)
  (match Tcp.Reassembly.process r ~seq:1000 ~len:100 ~window:10000 with
  | Tcp.Reassembly.Accept { len = 100; advance = 200; filled_hole = true; _ }
    -> ()
  | _ -> Alcotest.fail "hole fill expected");
  check_int "next past interval" 1200 (Tcp.Reassembly.next r);
  check_bool "interval reset" false (Tcp.Reassembly.has_hole r)

let test_reasm_ooo_merge () =
  let r = mk_reasm () in
  ignore (Tcp.Reassembly.process r ~seq:1200 ~len:100 ~window:10000);
  (* Extends the interval on the left (abuts). *)
  (match Tcp.Reassembly.process r ~seq:1100 ~len:100 ~window:10000 with
  | Tcp.Reassembly.Ooo_accept { off = 100; len = 100; _ } -> ()
  | _ -> Alcotest.fail "left merge expected");
  Alcotest.(check (option (pair int int)))
    "interval grew" (Some (1100, 200))
    (Tcp.Reassembly.ooo_interval r);
  (* Extends on the right. *)
  ignore (Tcp.Reassembly.process r ~seq:1300 ~len:50 ~window:10000);
  Alcotest.(check (option (pair int int)))
    "interval grew right" (Some (1100, 250))
    (Tcp.Reassembly.ooo_interval r)

let test_reasm_merge_fails () =
  let r = mk_reasm () in
  ignore (Tcp.Reassembly.process r ~seq:1100 ~len:50 ~window:10000);
  (* Disjoint second interval: FlexTOE drops it. *)
  match Tcp.Reassembly.process r ~seq:1300 ~len:50 ~window:10000 with
  | Tcp.Reassembly.Drop_merge_failed -> ()
  | _ -> Alcotest.fail "merge failure expected"

let test_reasm_window_trim () =
  let r = mk_reasm () in
  (match Tcp.Reassembly.process r ~seq:1000 ~len:100 ~window:60 with
  | Tcp.Reassembly.Accept { len = 60; advance = 60; _ } -> ()
  | _ -> Alcotest.fail "tail trim expected");
  match Tcp.Reassembly.process r ~seq:2000 ~len:10 ~window:60 with
  | Tcp.Reassembly.Drop_out_of_window -> ()
  | _ -> Alcotest.fail "window drop expected"

let test_reasm_fin_advance () =
  let r = mk_reasm () in
  ignore (Tcp.Reassembly.process r ~seq:1000 ~len:10 ~window:100);
  Tcp.Reassembly.force_advance r 1;
  check_int "fin consumed" 1011 (Tcp.Reassembly.next r)

(* Random segment arrivals of a contiguous stream: whatever is
   accepted must land at the right offset, and after enough
   retransmission rounds the stream completes. *)
let prop_reasm_single_converges =
  QCheck.Test.make ~name:"reassembly: random order converges via go-back-N"
    ~count:50
    QCheck.(int_bound 1000)
    (fun seed ->
      let rng = Sim.Rng.create (Int64.of_int (seed + 1)) in
      let total = 20 in
      let r = Tcp.Reassembly.create ~next:0 in
      let received = Array.make total false in
      let rounds = ref 0 in
      while Tcp.Reassembly.next r < total * 100 && !rounds < 50 do
        incr rounds;
        (* Go-back-N sender: transmit from the ack point, randomly
           dropping and reordering. *)
        let base = Tcp.Reassembly.next r / 100 in
        let segs = ref [] in
        for i = base to total - 1 do
          if not (Sim.Rng.bool rng 0.2) then segs := i :: !segs
        done;
        let arr = Array.of_list !segs in
        Sim.Rng.shuffle rng arr;
        Array.iter
          (fun i ->
            match
              Tcp.Reassembly.process r ~seq:(i * 100) ~len:100
                ~window:(total * 100)
            with
            | Tcp.Reassembly.Accept { advance; _ } ->
                let start = (Tcp.Reassembly.next r - advance) / 100 in
                for k = start to (Tcp.Reassembly.next r / 100) - 1 do
                  received.(k) <- true
                done
            | Tcp.Reassembly.Ooo_accept _ -> received.(i) <- true
            | _ -> ())
          arr
      done;
      Tcp.Reassembly.next r = total * 100
      && Array.for_all (fun x -> x) received)

(* --- Reassembly (multi interval, Linux-style) ------------------------------------ *)

let prop_reasm_multi_any_order =
  QCheck.Test.make
    ~name:"multi-interval reassembly: any arrival order reconstructs"
    ~count:100
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Sim.Rng.create (Int64.of_int (seed + 17)) in
      let total = 30 in
      let order = Array.init total (fun i -> i) in
      Sim.Rng.shuffle rng order;
      let r = Tcp.Reassembly_multi.create ~next:0 in
      Array.iter
        (fun i ->
          ignore
            (Tcp.Reassembly_multi.process r ~seq:(i * 50) ~len:50
               ~window:(total * 50)))
        order;
      Tcp.Reassembly_multi.next r = total * 50
      && Tcp.Reassembly_multi.intervals r = [])

let test_reasm_multi_holes () =
  let r = Tcp.Reassembly_multi.create ~next:0 in
  ignore (Tcp.Reassembly_multi.process r ~seq:100 ~len:50 ~window:10000);
  ignore (Tcp.Reassembly_multi.process r ~seq:300 ~len:50 ~window:10000);
  check_int "two intervals" 2
    (List.length (Tcp.Reassembly_multi.intervals r));
  (* Fill first hole: drains only through the first interval. *)
  (match Tcp.Reassembly_multi.process r ~seq:0 ~len:100 ~window:10000 with
  | Tcp.Reassembly_multi.Accept { advance = 150; _ } -> ()
  | _ -> Alcotest.fail "drain through first interval");
  check_int "one interval left" 1
    (List.length (Tcp.Reassembly_multi.intervals r));
  check_int "next" 150 (Tcp.Reassembly_multi.next r)

let test_reasm_multi_overlap_merge () =
  let r = Tcp.Reassembly_multi.create ~next:0 in
  ignore (Tcp.Reassembly_multi.process r ~seq:100 ~len:100 ~window:10000);
  ignore (Tcp.Reassembly_multi.process r ~seq:150 ~len:100 ~window:10000);
  Alcotest.(check (list (pair int int)))
    "merged" [ (100, 150) ]
    (Tcp.Reassembly_multi.intervals r)

let suite =
  [
    Alcotest.test_case "seq32 wraparound" `Quick test_seq_wraparound;
    Alcotest.test_case "seq32 windows" `Quick test_seq_window;
    QCheck_alcotest.to_alcotest prop_seq_diff_inverse;
    QCheck_alcotest.to_alcotest prop_seq_total_order_local;
    Alcotest.test_case "internet checksum vector" `Quick
      test_internet_checksum_rfc1071;
    Alcotest.test_case "checksum verify roundtrip" `Quick
      test_checksum_verification_roundtrip;
    Alcotest.test_case "crc32 vector" `Quick test_crc32_vector;
    Alcotest.test_case "crc32 int form" `Quick test_crc32_ints_matches_bytes;
    QCheck_alcotest.to_alcotest prop_checksum_matches_bytewise;
    Alcotest.test_case "checksum residue edges" `Quick
      test_checksum_residue_edges;
    QCheck_alcotest.to_alcotest prop_checksum_range_behaviour;
    Alcotest.test_case "csum_fixup with IP length < 20" `Quick
      test_csum_fixup_short_ip_length;
    Alcotest.test_case "flow reverse" `Quick test_flow_reverse;
    Alcotest.test_case "flow group stability" `Quick test_flow_group_stable;
    Alcotest.test_case "flow of rx segment" `Quick test_flow_of_segment_rx;
    QCheck_alcotest.to_alcotest prop_wire_roundtrip;
    Alcotest.test_case "wire lengths" `Quick test_wire_length;
    Alcotest.test_case "wire corruption detection" `Quick
      test_wire_detects_corruption;
    Alcotest.test_case "wire truncation" `Quick test_wire_truncated;
    Alcotest.test_case "wire ethertype" `Quick test_wire_bad_ethertype;
    Alcotest.test_case "wire checksum fixup" `Quick test_wire_fixup;
    Alcotest.test_case "reassembly in order" `Quick test_reasm_in_order;
    Alcotest.test_case "reassembly duplicate" `Quick test_reasm_duplicate;
    Alcotest.test_case "reassembly head trim" `Quick test_reasm_head_trim;
    Alcotest.test_case "reassembly ooo + hole fill" `Quick
      test_reasm_ooo_then_fill;
    Alcotest.test_case "reassembly interval merge" `Quick
      test_reasm_ooo_merge;
    Alcotest.test_case "reassembly merge failure drops" `Quick
      test_reasm_merge_fails;
    Alcotest.test_case "reassembly window trim" `Quick
      test_reasm_window_trim;
    Alcotest.test_case "reassembly FIN advance" `Quick
      test_reasm_fin_advance;
    QCheck_alcotest.to_alcotest prop_reasm_single_converges;
    QCheck_alcotest.to_alcotest prop_reasm_multi_any_order;
    Alcotest.test_case "multi-interval holes" `Quick test_reasm_multi_holes;
    Alcotest.test_case "multi-interval overlap merge" `Quick
      test_reasm_multi_overlap_merge;
  ]

(* Golden wire vector: a fully specified frame must encode to exactly
   these bytes (checked against an independent hand computation of
   the IPv4/TCP checksums). Guards against silent codec drift. *)
let test_wire_golden_vector () =
  let seg =
    S.make
      ~flags:{ S.no_flags with S.ack = true; psh = true }
      ~window:0x1234
      ~options:{ S.mss = None; ts = Some (0x01020304, 0x0A0B0C0D) }
      ~payload:(Bytes.of_string "AB")
      ~src_ip:0xC0A80001 ~dst_ip:0xC0A80002 ~src_port:0x0050
      ~dst_port:0xABCD ~seq:0x11223344 ~ack_seq:0x55667788 ()
  in
  let frame =
    S.make_frame ~src_mac:0x0200AABBCCDD ~dst_mac:0x020011223344 seg
  in
  let hex b =
    String.concat ""
      (List.init (Bytes.length b) (fun i ->
           Printf.sprintf "%02x" (Char.code (Bytes.get b i))))
  in
  let expected =
    (* Ethernet II *)
    "020011223344" ^ "0200aabbccdd" ^ "0800"
    (* IPv4: ver/ihl tos len id flags/frag ttl proto csum src dst *)
    ^ "4500" ^ "0036" ^ "0000" ^ "4000" ^ "4006" ^ "b96e"
    ^ "c0a80001" ^ "c0a80002"
    (* TCP: sport dport seq ack off/flags win csum urg *)
    ^ "0050" ^ "abcd" ^ "11223344" ^ "55667788" ^ "8018" ^ "1234"
    ^ "ca58" ^ "0000"
    (* options: NOP NOP TS *)
    ^ "0101" ^ "080a" ^ "01020304" ^ "0a0b0c0d"
    (* payload *)
    ^ "4142"
  in
  Alcotest.(check string) "golden bytes" expected
    (hex (Tcp.Wire.encode frame))

let golden_suite =
  [ Alcotest.test_case "wire golden vector" `Quick test_wire_golden_vector ]
