(* flexbench: run one benchmark workload in this process and print its
   report, then one JSON result line.

     flexbench.exe --workload echo_64 --seed 1 --seconds 20 --trace 0

   --trace 0 simulates [Workload.worlds] independent worlds (set-up +
   untraced window each; the count follows from --seconds) and prints
   the end-to-end metrics: modelled results pooled over the worlds,
   simulator cost as medians over their windows. World 0 runs twice
   and must reproduce its modelled numbers bit for bit.

   --trace 1 spends half of --seconds on untraced repetitions of world
   0, then runs one traced repetition (FlexScope metrics on, fabric hooks,
   socket-call spans, event recording), checks that its modelled
   numbers equal the untraced ones, replays its inputs through the
   layers, writes the spans to --out, and prints the per-layer
   metrics. *)

open Perfbench
module W = Workload
module L = Layers
module R = Report

let usage () =
  prerr_endline
    "usage: flexbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]";
  exit 2

let parse argv =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let args = go [] (List.tl (Array.to_list argv)) in
  let get k = match List.assoc_opt k args with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let spec =
    match W.find (get "workload") with
    | Some s -> s
    | None ->
        Printf.eprintf "unknown workload %S; known: %s\n" (get "workload")
          (String.concat ", " (List.map (fun s -> s.W.name) W.all));
        exit 2
  in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let out = Option.value ~default:".perfbench" (List.assoc_opt "out" args) in
  (spec, int "seed", float_of_int (int "seconds"), trace, out)

let describe spec ~seed =
  Printf.printf "workload %s, seed %d: %d connections, %s, %d B requests, %s, %d app cycles/request\n"
    spec.W.name seed spec.W.conns
    (match spec.W.loop with
    | W.Closed p -> Printf.sprintf "closed loop x %d outstanding" p
    | W.Open r ->
        Printf.sprintf "open loop, Poisson %.2f M req/s (due times in simulated time: generator lateness 0 by construction)"
          (r /. 1e6))
    spec.W.req_bytes
    (match spec.W.resp_bytes with None -> "echo" | Some n -> Printf.sprintf "%d B responses" n)
    spec.W.app_cycles;
  Printf.printf "window %.1f ms simulated after %.1f ms warm-up, %.1f ms drain\n"
    (Sim.Time.to_sec spec.W.window *. 1e3)
    (Sim.Time.to_sec spec.W.t0 *. 1e3)
    (Sim.Time.to_sec spec.W.drain *. 1e3)

(* One world, with the host's speed around it: the reference loop is
   timed in a process of its own just before and just after. *)
let timed_run ~traced spec ~seed =
  let c0 = Reference.time_ns () in
  let r = L.run ~traced spec ~seed in
  (r, (c0 + Reference.time_ns ()) / 2)

(* Repetitions until [seconds] have passed since [start] (at least two). *)
let repeat ~start ~seconds f =
  let rec go acc =
    let acc = f () :: acc in
    if List.length acc >= 2 && Clock.elapsed_s start >= seconds then List.rev acc
    else go acc
  in
  go []

let run (spec, seed, seconds, trace, out) =
  let start = Clock.now_ns () in
  describe spec ~seed;
  let errors = ref [] in
  let err e = errors := e :: !errors in
  let check_same what a b =
    if R.fingerprint spec a <> R.fingerprint spec b then
      err (what ^ ": modelled results differ, same seed")
  in
  let outcome_errors reps =
    List.iter (fun r -> List.iter err r.L.outcome.W.o_errors) reps;
    if List.exists (fun r -> R.ops r = 0) reps then err "no operation completed in a window"
  in
  let seed0 = W.world_seed ~seed 0 in
  let counted, metrics =
    if not trace then begin
      let k = W.worlds spec ~seconds in
      let worlds =
        List.init k (fun i -> timed_run ~traced:false spec ~seed:(W.world_seed ~seed i))
      in
      (* world 0 runs once more, for the determinism check *)
      let again = timed_run ~traced:false spec ~seed:seed0 in
      check_same "repeat of world 0" (fst (List.hd worlds)) (fst again);
      let timed = worlds @ [ again ] in
      outcome_errors (List.map fst timed);
      Printf.printf "%d worlds + 1 repeat, %.1f s\n" k (Clock.elapsed_s start);
      let row f = String.concat " " (List.map f timed) in
      Printf.printf "wall us/op by window: %s\nreference loop ms: %s\nwall setup s by world: %s\n"
        (row (fun (r, _) -> Printf.sprintf "%.2f" (R.host_us_per_op r)))
        (row (fun (_, ns) -> Printf.sprintf "%.1f" (float_of_int ns /. 1e6)))
        (row (fun (r, _) -> Printf.sprintf "%.3f" r.L.setup_s));
      let worlds = List.map fst worlds in
      let e2e = R.end_to_end spec ~worlds ~timed in
      print_endline "end-to-end:";
      List.iter (R.print_metric stdout) (e2e @ [ R.fail_ratio worlds ]);
      (worlds, List.filter (fun x -> not (List.mem x.R.name R.ungated)) e2e)
    end
    else begin
      let calib_ns = Reference.time_ns () in
      let untraced =
        repeat ~start ~seconds:(seconds /. 2.) (fun () -> L.run ~traced:false spec ~seed:seed0)
      in
      List.iteri
        (fun i r -> check_same (Printf.sprintf "untraced repeat %d" (i + 1)) (List.hd untraced) r)
        (List.tl untraced);
      let traced = L.run ~traced:true spec ~seed:seed0 in
      check_same "traced run vs untraced" (List.hd untraced) traced;
      outcome_errors (untraced @ [ traced ]);
      Printf.printf "world 0: %d untraced + 1 traced, %.1f s\n" (List.length untraced)
        (Clock.elapsed_s start);
      let cap = Option.get traced.L.capture in
      let rp = L.replays cap in
      List.iter err rp.L.replay_errors;
      (try
         if not (Sys.file_exists out) then Sys.mkdir out 0o755;
         let path = Filename.concat out (Printf.sprintf "%s-seed%d.spans.jsonl" spec.W.name seed) in
         Spans.write cap.L.spans path;
         Printf.printf "spans: %s (%d)\n" path (Spans.count cap.L.spans)
       with Sys_error e -> err ("writing spans: " ^ e));
      let pl = R.per_layer spec ~untraced ~calib_ns ~traced rp in
      print_endline "per-layer (traced run):";
      List.iter (R.print_metric stdout) (pl @ [ R.fail_ratio [ List.hd untraced ] ]);
      ([ List.hd untraced ], pl)
    end
  in
  (* every metric in the result line must be a number *)
  let bad, metrics = List.partition (fun x -> not (Float.is_finite x.R.value)) metrics in
  List.iter (fun x -> err (Printf.sprintf "metric %s is not a number" x.R.name)) bad;
  (List.rev !errors, R.attempted counted, R.failed counted, metrics)

(* An exception in a workload is a failed run, never a skipped one. *)
let () =
  let args = parse Sys.argv in
  let errors, attempted, failed, metrics =
    try run args
    with e -> ([ "exception: " ^ Printexc.to_string e ], 1, 1, [])
  in
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) errors;
  print_endline (R.result_line ~correct:(errors = []) ~attempted ~failed metrics);
  exit (if errors = [] then 0 else 1)
