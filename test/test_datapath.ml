(* Data-path-level tests: NIC-facing interfaces that the integration
   suite doesn't isolate — connection database, reinjection, context
   queues, semantic tracepoints, and FPC bookkeeping. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ip_a = 0x0A000001
let ip_b = 0x0A000002

let mk_pair ?config () =
  let engine = Sim.Engine.create () in
  let fabric = Netsim.Fabric.create engine () in
  let a = Flextoe.create_node engine ~fabric ?config ~ip:ip_a () in
  let b = Flextoe.create_node engine ~fabric ?config ~ip:ip_b () in
  (engine, a, b)

let echo_load engine a b ~conns ~ms =
  let stats = Host.Rpc.Stats.create engine in
  Host.Rpc.server ~endpoint:(Flextoe.endpoint a) ~port:7 ~app_cycles:100
    ~handler:Host.Rpc.echo_handler ();
  Host.Rpc.Stats.start_measuring stats;
  ignore
    (Host.Rpc.closed_loop_client ~endpoint:(Flextoe.endpoint b) ~engine
       ~server_ip:ip_a ~server_port:7 ~conns ~pipeline:2 ~req_bytes:256
       ~stats ());
  Sim.Engine.run ~until:(Sim.Time.ms ms) engine;
  stats

let test_has_flow () =
  let engine, a, b = mk_pair () in
  let dp = Flextoe.datapath a in
  let flow =
    Tcp.Flow.v ~local_ip:ip_a ~local_port:7 ~remote_ip:ip_b
      ~remote_port:40_000
  in
  check_bool "unknown before" false (Flextoe.Datapath.has_flow dp flow);
  ignore (echo_load engine a b ~conns:1 ~ms:10);
  (* The CP allocates client ports from 40000 upward. *)
  check_bool "installed after connect" true
    (Flextoe.Datapath.has_flow dp flow)

let test_semantic_tracepoints () =
  let engine, a, b = mk_pair () in
  let dp = Flextoe.datapath a in
  ignore (Sim.Trace.enable (Flextoe.Datapath.traces dp) ());
  ignore (echo_load engine a b ~conns:4 ~ms:20);
  let hits name =
    List.fold_left
      (fun acc p ->
        if Sim.Trace.point_name p = name then acc + Sim.Trace.hits p else acc)
      0
      (Sim.Trace.points (Flextoe.Datapath.traces dp))
  in
  let st = Flextoe.Datapath.stats dp in
  check_bool "rx_seg counted" true (hits "protocol:rx_seg" > 1000);
  check_bool "tx_seg counted" true (hits "protocol:tx_seg" > 1000);
  (* tx_acks also counts HC window updates and ACKs still in flight
     at the horizon; the tracepoint counts RX-generated ones. *)
  let ack_gen = hits "postproc:ack_gen" in
  check_bool "ack tracepoint tracks the wire counter" true
    (abs (st.Flextoe.Datapath.tx_acks - ack_gen) < (ack_gen / 50) + 64);
  check_int "clean network: no ooo" 0 (hits "protocol:ooo_seg");
  check_int "clean network: no fast retx" 0 (hits "protocol:fast_retx")

let test_tracepoints_under_loss () =
  let engine = Sim.Engine.create ~seed:23L () in
  let fabric = Netsim.Fabric.create engine () in
  Netsim.Fabric.set_loss fabric 0.02;
  let a = Flextoe.create_node engine ~fabric ~ip:ip_a () in
  let b = Flextoe.create_node engine ~fabric ~ip:ip_b () in
  List.iter
    (fun n ->
      ignore (Sim.Trace.enable (Flextoe.Datapath.traces (Flextoe.datapath n)) ()))
    [ a; b ];
  ignore (echo_load engine a b ~conns:16 ~ms:100);
  let hits dp name =
    List.fold_left
      (fun acc p ->
        if Sim.Trace.point_name p = name then acc + Sim.Trace.hits p else acc)
      0
      (Sim.Trace.points (Flextoe.Datapath.traces dp))
  in
  let dpa = Flextoe.datapath a and dpb = Flextoe.datapath b in
  check_bool "loss shows out-of-order arrivals" true
    (hits dpa "protocol:ooo_seg" + hits dpb "protocol:ooo_seg" > 0);
  let sta = Flextoe.Datapath.stats dpa and stb = Flextoe.Datapath.stats dpb in
  check_int "fast-retx tracepoint matches the counter"
    (sta.Flextoe.Datapath.fast_retx + stb.Flextoe.Datapath.fast_retx)
    (hits dpa "protocol:fast_retx" + hits dpb "protocol:fast_retx")

let test_xdp_uninstall_restores () =
  let engine, a, b = mk_pair () in
  let dp = Flextoe.datapath a in
  let fw = Flextoe.Ext_firewall.create engine in
  Flextoe.Ext_firewall.install fw dp;
  Flextoe.Ext_firewall.block fw ~ip:ip_b;
  let stats = echo_load engine a b ~conns:1 ~ms:20 in
  check_int "blocked client got nothing" 0 (Host.Rpc.Stats.ops stats);
  (* Uninstall at run time: the client's retransmissions then get
     through. *)
  Flextoe.Xdp.uninstall dp;
  Sim.Engine.run ~until:(Sim.Time.ms 120) engine;
  check_bool "service restored after uninstall" true
    (Host.Rpc.Stats.ops stats > 50)

let test_fpc_busy_reporting () =
  let engine, a, b = mk_pair () in
  ignore (echo_load engine a b ~conns:8 ~ms:10);
  let busy = Flextoe.Datapath.fpc_busy (Flextoe.datapath a) in
  check_bool "many FPCs listed" true (List.length busy > 20);
  let protos =
    List.filter
      (fun (n, _) -> String.length n >= 5 && String.sub n 0 5 = "proto")
      busy
  in
  check_bool "protocol FPCs did work" true
    (List.exists (fun (_, b) -> b > 0) protos);
  check_bool "rtc FPC idle in pipelined mode" true
    (List.assoc "rtc0" busy = 0)

let test_rtc_uses_only_rtc_fpc () =
  let config =
    {
      Flextoe.Config.default with
      parallelism = Flextoe.Config.t3_baseline;
    }
  in
  let engine, a, b = mk_pair ~config () in
  ignore (echo_load engine a b ~conns:2 ~ms:10);
  let busy = Flextoe.Datapath.fpc_busy (Flextoe.datapath a) in
  check_bool "rtc FPC did the work" true (List.assoc "rtc0" busy > 0);
  check_int "protocol FPCs idle in run-to-completion" 0
    (List.assoc "proto0" busy)

let test_stats_consistency () =
  let engine, a, b = mk_pair () in
  let stats = echo_load engine a b ~conns:8 ~ms:30 in
  let sa = Flextoe.Datapath.stats (Flextoe.datapath a) in
  let sb = Flextoe.Datapath.stats (Flextoe.datapath b) in
  check_bool "ops flowed" true (Host.Rpc.Stats.ops stats > 1000);
  (* On a lossless fabric, what a sends is what b receives (off by the
     segments still in flight at the horizon). *)
  let sent = sa.Flextoe.Datapath.tx_segments + sa.Flextoe.Datapath.tx_acks in
  let seen = sb.Flextoe.Datapath.rx_segments in
  check_bool "conservation a->b" true (abs (sent - seen) < 64);
  check_int "nothing dropped" 0 sa.Flextoe.Datapath.rx_dropped

(* A fast retransmit reaches the control plane's congestion-control
   counters in both modes. The sender's incoming ACKs are dropped so
   its data stays unacknowledged; duplicate ACKs injected straight
   into its data path then trigger exactly one fast retransmit, which
   [read_cc_stats] must report. The CP loop is pushed past the horizon
   so nothing else reads (and resets) the counters first. *)
let test_fast_retx_cc_stats () =
  List.iter
    (fun (mode, par) ->
      let config =
        {
          Flextoe.Config.default with
          parallelism = par;
          cc_interval = Sim.Time.sec 1.;
        }
      in
      let engine, a, b = mk_pair ~config () in
      Host.Rpc.server ~endpoint:(Flextoe.endpoint a) ~port:7 ~app_cycles:100
        ~handler:Host.Rpc.echo_handler ();
      let sock = ref None in
      (Flextoe.endpoint b).Host.Api.connect ~remote_ip:ip_a ~remote_port:7
        ~on_connected:(fun r ->
          match r with
          | Ok s -> sock := Some s
          | Error e -> Alcotest.failf "%s" e);
      Sim.Engine.run ~until:(Sim.Time.ms 2) engine;
      let dpb = Flextoe.datapath b in
      Netsim.Fabric.set_rx_fault (Flextoe.Datapath.fabric_port dpb)
        (Some (fun _ _ -> ()));
      ignore
        ((Option.get !sock).Host.Api.send
           (Host.Framing.encode (Bytes.make 256 'x')));
      Sim.Engine.run ~until:(Sim.Time.ms 3) engine;
      let cs = Option.get (Flextoe.Datapath.conn dpb 0) in
      let proto = cs.Flextoe.Conn_state.proto in
      check_bool (mode ^ ": data in flight") true
        (Flextoe.Conn_state.tx_unacked cs > 0);
      let flow = cs.Flextoe.Conn_state.flow in
      let dup_ack =
        Tcp.Segment.make_frame ~src_mac:(Flextoe.mac_of_ip ip_a)
          ~dst_mac:(Flextoe.mac_of_ip ip_b)
          (Tcp.Segment.make ~flags:Tcp.Segment.flags_ack
             ~window:
               (proto.Flextoe.Conn_state.remote_win
               lsr config.Flextoe.Config.window_scale)
             ~src_ip:flow.Tcp.Flow.remote_ip ~dst_ip:flow.Tcp.Flow.local_ip
             ~src_port:flow.Tcp.Flow.remote_port
             ~dst_port:flow.Tcp.Flow.local_port
             ~seq:
               (Flextoe.Conn_state.rx_seq_of_pos cs
                  (Flextoe.Conn_state.rx_next_pos cs))
             ~ack_seq:
               (Flextoe.Conn_state.tx_seq_of_pos cs
                  proto.Flextoe.Conn_state.tx_acked_pos)
             ())
      in
      for _ = 1 to 5 do
        Flextoe.Datapath.reinject_rx dpb dup_ack
      done;
      Sim.Engine.run ~until:(Sim.Time.ms 4) engine;
      check_int (mode ^ ": datapath counted the fast retransmit") 1
        (Flextoe.Datapath.stats dpb).Flextoe.Datapath.fast_retx;
      check_int (mode ^ ": CC stats report the fast retransmit") 1
        (Flextoe.Datapath.read_cc_stats dpb ~conn:0).Flextoe.Datapath.fretx)
    [
      ("pipelined", Flextoe.Config.t3_flow_groups);
      ("rtc", Flextoe.Config.t3_baseline);
    ]

(* Degrees below 1 are configuration errors, rejected up front by
   [Datapath.create] rather than silently clamped or left to fail
   deep inside the wiring. *)
let test_create_rejects_degrees () =
  let rejects name config =
    let engine = Sim.Engine.create () in
    let fabric = Netsim.Fabric.create engine () in
    match
      Flextoe.Datapath.create engine ~config ~fabric ~mac:1 ~ip:ip_a ()
    with
    | _ -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument msg ->
        check_bool
          (Printf.sprintf "%s rejected by Datapath.create (%s)" name msg)
          true
          (String.starts_with ~prefix:"Datapath.create" msg)
  in
  rejects "batch = 0" { Flextoe.Config.default with batch = 0 };
  rejects "s_shards = 0"
    {
      Flextoe.Config.default with
      scale = Some { Flextoe.Config.s_shards = 0; s_emem_flows = 0 };
    }

let suite =
  [
    Alcotest.test_case "connection database lookup" `Quick test_has_flow;
    Alcotest.test_case "semantic tracepoints (clean)" `Quick
      test_semantic_tracepoints;
    Alcotest.test_case "semantic tracepoints (loss)" `Quick
      test_tracepoints_under_loss;
    Alcotest.test_case "XDP uninstall restores service" `Quick
      test_xdp_uninstall_restores;
    Alcotest.test_case "fpc busy reporting" `Quick test_fpc_busy_reporting;
    Alcotest.test_case "run-to-completion placement" `Quick
      test_rtc_uses_only_rtc_fpc;
    Alcotest.test_case "segment conservation" `Quick test_stats_consistency;
    Alcotest.test_case "fast retransmit reaches CC stats" `Quick
      test_fast_retx_cc_stats;
    Alcotest.test_case "create rejects degrees below 1" `Quick
      test_create_rejects_degrees;
  ]

(* VLAN-tagged ingress end to end: without the strip module, tagged
   frames are not data-path segments (they detour to the control
   plane); with it, they flow normally. *)
let test_vlan_ingress () =
  let run ?(parallelism = Flextoe.Config.t3_flow_groups)
      ?(payload = Bytes.empty) with_strip =
    let config = { Flextoe.Config.default with parallelism } in
    let engine, a, b = mk_pair ~config () in
    if with_strip then begin
      let vs = Flextoe.Ext_vlan.create engine in
      Flextoe.Ext_vlan.install vs (Flextoe.datapath a)
    end;
    let stats = Host.Rpc.Stats.create engine in
    Host.Rpc.server ~endpoint:(Flextoe.endpoint a) ~port:7 ~app_cycles:50
      ~handler:Host.Rpc.echo_handler ();
    Host.Rpc.Stats.start_measuring stats;
    (* Establish one normal connection first. *)
    let sock = ref None in
    (Flextoe.endpoint b).Host.Api.connect ~remote_ip:ip_a ~remote_port:7
      ~on_connected:(fun r ->
        match r with Ok s -> sock := Some s | Error e -> Alcotest.failf "%s" e);
    Sim.Engine.run ~until:(Sim.Time.ms 2) engine;
    let sock = Option.get !sock in
    ignore (sock.Host.Api.send (Host.Framing.encode (Bytes.make 32 'x')));
    Sim.Engine.run ~until:(Sim.Time.ms 5) engine;
    let before = Host.Rpc.Stats.ops stats in
    ignore before;
    (* Now inject VLAN-tagged copies of a data segment directly into
       the fabric toward the server. *)
    let cs =
      Option.get (Flextoe.Datapath.conn (Flextoe.datapath b) 0)
    in
    let flow = cs.Flextoe.Conn_state.flow in
    let seg =
      Tcp.Segment.make ~flags:Tcp.Segment.flags_ack ~payload
        ~src_ip:flow.Tcp.Flow.local_ip
        ~dst_ip:flow.Tcp.Flow.remote_ip
        ~src_port:flow.Tcp.Flow.local_port
        ~dst_port:flow.Tcp.Flow.remote_port
        ~seq:
          (Flextoe.Conn_state.tx_seq_of_pos cs
             cs.Flextoe.Conn_state.proto.Flextoe.Conn_state.tx_next_pos)
        ~ack_seq:(Tcp.Reassembly.next cs.Flextoe.Conn_state.proto.Flextoe.Conn_state.reasm)
        ()
    in
    let tagged =
      Tcp.Segment.make_frame ~vlan:(Some 7)
        ~src_mac:(Flextoe.mac_of_ip ip_b) ~dst_mac:(Flextoe.mac_of_ip ip_a)
        seg
    in
    let port = Flextoe.Datapath.fabric_port (Flextoe.datapath b) in
    let ctl_before =
      (Flextoe.Datapath.stats (Flextoe.datapath a)).Flextoe.Datapath
      .rx_to_control
    in
    for _ = 1 to 10 do
      Netsim.Fabric.transmit port tagged
    done;
    Sim.Engine.run ~until:(Sim.Time.ms 8) engine;
    let ctl_after =
      (Flextoe.Datapath.stats (Flextoe.datapath a)).Flextoe.Datapath
      .rx_to_control
    in
    ctl_after - ctl_before
  in
  (* Without the strip module, the 10 tagged frames detour to the
     control plane; with it, they are stripped and handled by the
     data path. *)
  check_bool "tagged frames detour without strip" true (run false >= 10);
  check_int "stripped frames stay on the data path" 0 (run true);
  (* A tagged data segment of an installed flow is a control-path
     frame in either mode: the run-to-completion baseline applies the
     pre-processor's predicate too. *)
  List.iter
    (fun (mode, parallelism) ->
      check_bool
        (mode ^ ": tagged data segments detour")
        true
        (run ~parallelism ~payload:(Bytes.make 16 'v') false >= 10))
    [
      ("pipelined", Flextoe.Config.t3_flow_groups);
      ("rtc", Flextoe.Config.t3_baseline);
    ]

let vlan_suite =
  [ Alcotest.test_case "VLAN ingress with/without strip module" `Quick
      test_vlan_ingress ]
