(* The benchmark's checks must be able to fail: a wrong expected echo
   must fail the output check, connections that never come up must
   show in the failure count, and the modelled results must repeat
   exactly for one seed (traced or not) and change with the seed. *)

open Perfbench
module W = Workload
module L = Layers

(* A few connections and a few simulated milliseconds: a fraction of
   a second per world, and long enough for the seed's host-noise
   stalls to show in the closed loop. *)
let small =
  { W.echo_64 with W.conns = 4; t0 = Sim.Time.us 200; window = Sim.Time.ms 3 }

let small_open =
  { W.flows_1k_open with W.conns = 8; gen_start = Sim.Time.us 100;
    t0 = Sim.Time.us 200; window = Sim.Time.us 300; loop = W.Open 2e5 }

let run ?knobs ?(traced = false) ?(seed = 1) spec = L.run ?knobs ~traced spec ~seed

let test_healthy () =
  List.iter
    (fun spec ->
      let r = run spec in
      let o = r.L.outcome in
      Alcotest.(check (list string)) (spec.W.name ^ ": no check fails") [] o.W.o_errors;
      Alcotest.(check int) (spec.W.name ^ ": nothing failed") 0 o.W.o_failed;
      Alcotest.(check bool) (spec.W.name ^ ": ops completed") true (o.W.o_completed > 0))
    [ small; small_open; { W.stream_64k with W.t0 = Sim.Time.us 200; window = Sim.Time.ms 1 } ]

let test_wrong_echo () =
  let r = run ~knobs:{ W.no_knobs with W.wrong_echo = true } small in
  Alcotest.(check bool) "echo check fails" true (r.L.outcome.W.o_errors <> [])

let test_misdirect () =
  List.iter
    (fun spec ->
      let r = run ~knobs:{ W.no_knobs with W.misdirect = true } spec in
      let o = r.L.outcome in
      Alcotest.(check bool)
        (spec.W.name ^ ": every connect fails") true (o.W.o_failed >= spec.W.conns);
      Alcotest.(check bool)
        (spec.W.name ^ ": fail_ratio > 0") true
        ((Report.fail_ratio [ r ]).Report.value > 0.))
    [ small; small_open ]

(* A connection that comes up after the window opens is one failed
   connect, and its socket carries no requests. *)
let test_late_connect () =
  let r = run ~knobs:{ W.no_knobs with W.late_connect = true } small in
  let o = r.L.outcome in
  Alcotest.(check (list string)) "no check fails" [] o.W.o_errors;
  Alcotest.(check int) "one failed connect, no unanswered request" 1 o.W.o_failed;
  Alcotest.(check int) "nothing unanswered" 0 o.W.o_unanswered

let test_determinism () =
  let fp ?traced ?seed spec = Report.fingerprint spec (run ?traced ?seed spec) in
  List.iter
    (fun spec ->
      let a = fp spec in
      Alcotest.(check string) (spec.W.name ^ ": same seed") a (fp spec);
      Alcotest.(check string) (spec.W.name ^ ": traced = untraced") a (fp ~traced:true spec);
      Alcotest.(check bool) (spec.W.name ^ ": other seed differs") true (a <> fp ~seed:2 spec))
    [ small; small_open ]

let () =
  Alcotest.run "perfbench"
    [
      ( "checks",
        [
          Alcotest.test_case "healthy worlds pass" `Quick test_healthy;
          Alcotest.test_case "wrong expected echo fails" `Quick test_wrong_echo;
          Alcotest.test_case "failed connects counted" `Quick test_misdirect;
          Alcotest.test_case "late connect counted once" `Quick test_late_connect;
          Alcotest.test_case "modelled results deterministic" `Quick test_determinism;
        ] );
    ]
