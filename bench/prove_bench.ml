(* FlexProve overhead check.

   The layer-0 graph passes run once per [Datapath.create]; steady
   state must not pay for them. Two measurements:

   - the cost of one full [Prove.check_graph] over the extracted
     builtin graph, amortized over many iterations — the one-time
     price every node construction pays;
   - kv 32x32 steady-state throughput at batch 1 and 8 (the batch
     gate's workload, create-time checks now in the path). bench_gate
     prove holds batch 1 within 5% of bench/records/prove.json, which
     was pinned before the checks were added. *)

open Common

let check_micros ~iters =
  let config = Flextoe.Config.default in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    match
      Flextoe.Prove.check_graph (Flextoe.Datapath.builtin_graph ~config ())
    with
    | Ok _ -> ()
    | Error _ -> failwith "builtin graph rejected"
  done;
  1e6 *. (Unix.gettimeofday () -. t0) /. float_of_int iters

let run () =
  header "FlexProve overhead: create-time graph checks vs steady state";
  let micros = check_micros ~iters:1000 in
  Printf.printf "  check_graph: %.1f us per full run (3 passes, once per \
                 node create)\n"
    micros;
  let results =
    List.map (fun b -> (b, Batch_sweep.measure_degree b)) [ 1; 8 ]
  in
  Batch_sweep.print_table results;
  log_result ~experiment:"prove"
    "create-time checks %.1f us once per node; steady state %.2f mOps"
    micros (List.assoc 1 results);
  {
    Record.workload =
      "kv 32x32, 2 clients, seed 42, create-time FlexProve checks in the \
       path";
    metrics =
      Record.metric "check_micros" "us" Record.Lower micros
      :: Batch_sweep.mops_metrics results;
    checks = [];
  }
