(* CI entry point for the bench regression gates.

   Usage: bench_gate [GATE] [RECORD.json] [OUT.json]
   GATE is batch, churn, par, scale, prove or all (the default when no
   argument is given). Each gate holds a fresh run against RECORD
   (default bench/records/GATE.json) and writes the run to OUT
   (default _build/bench/GATE.json); passing the record's own path as
   OUT re-pins it. Exit 0 when every requested gate holds, 1
   otherwise, 2 on an unknown gate. *)

let gates =
  [
    ("batch", Batch_sweep.run);
    ("churn", Churn.run);
    ("par", Batch_sweep.run_par);
    ("scale", Scale_sweep.run);
    ("prove", Prove_bench.run);
  ]

let run_gate ?record ?out name =
  match List.assoc_opt name gates with
  | None ->
      Printf.eprintf "bench_gate: unknown gate %S (%s|all)\n" name
        (String.concat "|" (List.map fst gates));
      exit 2
  | Some run ->
      let default dir = Printf.sprintf "%s/%s.json" dir name in
      Record.gate
        ~record:(Option.value record ~default:(default "bench/records"))
        ~out:(Option.value out ~default:(default "_build/bench"))
        (run ())

let () =
  let ok =
    match List.tl (Array.to_list Sys.argv) with
    | [] | [ "all" ] ->
        List.fold_left (fun ok (name, _) -> run_gate name && ok) true gates
    | [ name ] -> run_gate name
    | [ name; record ] -> run_gate ~record name
    | name :: record :: out :: _ -> run_gate ~record ~out name
  in
  exit (if ok then 0 else 1)
