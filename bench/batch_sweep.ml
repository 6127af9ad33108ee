(* Batching sweep and its regression gate.

   Fixed-seed memcached-style workload on FlexTOE at uniform batching
   degrees 1/2/4/8. Two verdicts (bench_gate batch, record
   bench/records/batch.json):

   - batch=1 throughput must stay within 5% of the record — the
     batching machinery may not tax the unbatched pipeline;
   - batch=8 must beat batch=1 — coalescing has to actually pay. *)

open Common

let degrees = [ 1; 2; 4; 8 ]

(* Build one batch-degree world on [w] (its own fabric, server and two
   clients) and return the stats the caller will open a measurement
   window on. Shared between the sequential sweep and the parallel
   speedup gate, which runs all four degree worlds as cluster LPs. *)
let build_degree w b =
  let config =
    { Flextoe.Config.default with Flextoe.Config.batch = b }
  in
  let server = mk_node w FlexTOE ~app_cores:2 ~config ip_server in
  let stats = Host.Rpc.Stats.create w.engine in
  ignore
    (Host.App_kv.server ~endpoint:server.ep ~port:11211 ~app_cycles:890 ());
  for i = 0 to 1 do
    let client = mk_node w FlexTOE ~app_cores:4 ~config (ip_client i) in
    Host.App_kv.client ~endpoint:client.ep ~engine:w.engine
      ~server_ip:ip_server ~server_port:11211 ~conns:16 ~pipeline:8
      ~key_bytes:32 ~value_bytes:32 ~set_ratio:0.1 ~stats ()
  done;
  stats

let measure_degree b =
  let w = mk_world ~seed:42L () in
  let stats = build_degree w b in
  measure w ~warmup:(Sim.Time.ms 8) ~window:(Sim.Time.ms 15) [ stats ];
  Host.Rpc.Stats.mops stats

let print_table results =
  columns (List.map (fun (b, _) -> Printf.sprintf "b=%d" b) results);
  row_of_floats "FlexTOE mOps" (List.map snd results)

let degree (b, _) = Printf.sprintf "b%d" b

(* Degree 1 is the regression anchor, within 5% of its record; the
   prove gate records the same metrics. *)
let mops_metrics =
  Record.series ~key:degree
    ~bound:(fun (b, _) -> if b = 1 then Some 0.05 else None)
    "mops" "Mops" Record.Higher snd

let run () =
  header "Batch sweep: throughput vs uniform batching degree";
  let results = List.map (fun b -> (b, measure_degree b)) degrees in
  print_table results;
  let at b = List.assoc b results in
  log_result ~experiment:"batch"
    "batch=8 %.2f mOps = %.2fx batch=1 (doorbell+GRO+notify coalescing)"
    (at 8)
    (at 8 /. at 1);
  note "degree 1 is bit-identical to the unbatched seed pipeline;";
  note "gains come from amortized doorbells, GRO merges, ARX coalescing.";
  {
    Record.workload = "kv 32x32, 2 clients, seed 42";
    metrics = mops_metrics results;
    checks =
      [
        Record.check "batch=8" (at 8 > at 1) "%.2f mOps = %.2fx batch=1" (at 8)
          (at 8 /. at 1);
      ];
  }

(* --- FlexPar: conservative-parallel speedup ------------------------------ *)

(* The four batch-degree worlds are independent (disjoint fabrics), so
   they make an embarrassingly-parallel cluster: one LP per degree, no
   channels. Running them under the conservative engine at domains=1
   vs domains=8 gives a wall-clock speedup that is pure engine
   overhead + scheduling — and because each LP is seeded and isolated,
   the measured mOps must be BIT-IDENTICAL at every domain count.
   Both are gated: determinism always, speedup against a threshold
   scaled to the cores actually available. *)

module Cl = Sim.Engine.Cluster

let par_warmup = Sim.Time.ms 8
let par_horizon = Sim.Time.ms 23 (* warmup + the 15 ms window *)

let par_sweep ~domains =
  let cl = Cl.create ~seed:9L ~domains () in
  let stats =
    List.map
      (fun b ->
        let lp = Cl.add_lp ~seed:42L cl in
        let w = { engine = lp; fabric = Netsim.Fabric.create lp () } in
        let st = build_degree w b in
        (* [measure]'s between-runs start_measuring is a solo-engine
           idiom; under the cluster the window opens as an event. *)
        Sim.Engine.schedule_at lp par_warmup (fun () ->
            Host.Rpc.Stats.start_measuring st);
        (b, st))
      degrees
  in
  let t0 = Unix.gettimeofday () in
  Cl.run ~until:par_horizon cl;
  let wall = Unix.gettimeofday () -. t0 in
  ( List.map (fun (b, st) -> (b, Host.Rpc.Stats.mops st)) stats,
    wall,
    Cl.workers_used cl )

let run_par () =
  header "FlexPar speedup: 4 batch-degree worlds as conservative LPs";
  let results, wall1, _ = par_sweep ~domains:1 in
  let rn, walln, workers = par_sweep ~domains:8 in
  let deterministic =
    List.for_all2 (fun (b, a) (b', c) -> b = b' && a = c) results rn
  in
  let cores = Domain.recommended_domain_count () in
  let speedup = wall1 /. Float.max walln 1e-9 in
  (* Ideal speedup is bounded by whichever is scarcest: requested
     domains, physical cores, or the 4 LPs there are to spread. Gate
     at 75% of that bound, capped at 3x (on a >=4-core box the bound
     is 4, so the gate is exactly 3x). *)
  let threshold =
    Float.min 3.0
      (0.75 *. float_of_int (min (min 8 cores) (List.length degrees)))
  in
  columns (List.map (fun (b, _) -> Printf.sprintf "b=%d" b) results);
  row_of_floats "mOps (par)" (List.map snd results);
  Printf.printf
    "  domains=1 %.2fs, domains=8 %.2fs -> %.2fx (threshold %.2fx; %d \
     worker(s), %d core(s))\n"
    wall1 walln speedup threshold workers cores;
  log_result ~experiment:"par"
    "domains=8 runs the 4-LP cluster %.2fx faster than domains=1 \
     (bit-identical mOps: %b)"
    speedup deterministic;
  note "each LP is an isolated seeded world: results are bit-identical";
  note "across domain counts; only wall-clock changes.";
  {
    Record.workload = "4 kv batch-degree worlds as cluster LPs, seed 42";
    metrics =
      Record.series ~key:degree "mops" "Mops" Record.Higher snd results
      @ [
          Record.metric "wall_s.domains_1" "s" Record.Lower wall1;
          Record.metric "wall_s.domains_8" "s" Record.Lower walln;
          Record.metric "speedup" "x" Record.Higher speedup;
        ];
    checks =
      [
        Record.check "determinism" deterministic "%s"
          (if deterministic then "mOps bit-identical at domains=1 and 8"
           else "mOps differ across domain counts");
        Record.check "speedup" (speedup >= threshold) "%.2fx (threshold %.2fx)"
          speedup threshold;
      ];
  }
