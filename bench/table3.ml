(* Table 3: the data-path parallelism ablation.

   64-connection echo with one 2 KB RPC in flight per connection
   (exercising both intra- and inter-connection parallelism), as the
   server's data path gains each level of parallelism:

     baseline (run to completion) -> + pipelining -> + intra-FPC
     hardware threads -> + replicated pre/post-processing ->
     + flow-group islands.

   Paper: 79 mbps -> 46x -> 103x -> 140x -> 286x, with 50p/99.99p
   latency falling from 1179/6929 us to 46/58 us. *)

open Common

let rows =
  [
    ("Baseline (run-to-completion)", Flextoe.Config.t3_baseline, (1.0, 1179., 6929.));
    ("+ Pipelining", Flextoe.Config.t3_pipelined, (46., 183., 684.));
    ("+ Intra-FPC parallelism", Flextoe.Config.t3_threads, (103., 128., 148.));
    ("+ Replicated pre/post", Flextoe.Config.t3_replicated, (140., 94., 106.));
    ("+ Flow-group islands", Flextoe.Config.t3_flow_groups, (286., 46., 58.));
  ]

let measure_row parallelism =
  let w = mk_world () in
  let config = { Flextoe.Config.default with parallelism } in
  let server = mk_node w FlexTOE ~app_cores:8 ~config ip_server in
  let client = mk_node w FlexTOE ~app_cores:8 (ip_client 0) in
  let stats = Host.Rpc.Stats.create w.engine in
  start_server server ~port:7 ~app_cycles:100 ~handler:Host.Rpc.echo_handler;
  ignore
    (Host.Rpc.closed_loop_client ~endpoint:client.ep ~engine:w.engine
       ~server_ip:ip_server ~server_port:7 ~conns:64 ~pipeline:1
       ~req_bytes:2048 ~stats ());
  measure w ~warmup:(Sim.Time.ms 20) ~window:(Sim.Time.ms 40) [ stats ];
  (* Throughput as echoed application bytes, both directions. *)
  let mbps = 2. *. Host.Rpc.Stats.gbps stats *. 1000. in
  ( mbps,
    Host.Rpc.Stats.rtt_percentile_us stats 50.,
    Host.Rpc.Stats.rtt_percentile_us stats 99.99 )

let run () =
  header "Table 3: data-path parallelism breakdown (64 conns, 2KB echo)";
  Printf.printf "%-30s %10s %6s %9s %10s  (paper x, 50p, 99.99p)\n" ""
    "mbps" "x" "50p us" "99.99p us";
  let base = ref 1. in
  List.iter
    (fun (name, par, (px, p50, p9999)) ->
      let mbps, m50, m9999 = measure_row par in
      if !base = 1. then base := mbps;
      let factor = mbps /. !base in
      Printf.printf "%-30s %10.1f %6.1f %9.1f %10.1f  (%gx, %g, %g)\n" name
        mbps factor m50 m9999 px p50 p9999;
      log_result ~experiment:"table3" "%s: %.0f mbps (%.0fx), 50p %.0fus"
        name mbps factor m50)
    rows;
  note "paper: each level is necessary; cumulative gain 286x with the";
  note "largest single jump from pipelining (46x)."
