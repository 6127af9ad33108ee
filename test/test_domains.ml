(* Domain safety of shared library state. Each case starts its own
   domains with [Domain.spawn] rather than through [Engine.Cluster],
   whose worker count is capped at the host's core count: spawned
   domains run concurrently even on a one-core machine, where the OS
   interleaves them.

   This shard must stay a process of its own, with nothing else in it
   touching the tables under test first: the CRC table raced on the
   first use only. *)

let flows =
  Array.init 512 (fun i ->
      Tcp.Flow.v ~local_ip:(0x0A000001 + (i * 37)) ~local_port:(1024 + i)
        ~remote_ip:0x0A0000FE ~remote_port:(80 + (i mod 7)))

let groups = 32

let groups_of_flows () =
  Array.map (fun f -> Tcp.Flow.flow_group f ~groups) flows

(* Several domains hash flows for the first time at once, released
   together by a spin barrier. A lazily built CRC table raised
   [CamlinternalLazy.Undefined] in every domain that forced it while
   another was still building it; [Domain.join] re-raises that here.
   With two or more cores the lazy table failed this on every run; on
   one core the domains interleave only where the OS preempts them,
   so there the race is rarely hit. *)
let test_flow_group_first_use_race () =
  let n = 4 in
  let arrived = Atomic.make 0 in
  let worker () =
    Atomic.incr arrived;
    while Atomic.get arrived < n do
      Domain.cpu_relax ()
    done;
    groups_of_flows ()
  in
  let domains = List.init n (fun _ -> Domain.spawn worker) in
  let results = List.map Domain.join domains in
  let sequential = groups_of_flows () in
  List.iteri
    (fun i r ->
      Alcotest.(check (array int))
        (Printf.sprintf "domain %d matches the sequential run" i)
        sequential r)
    results

let suite =
  [
    Alcotest.test_case "flow_group first use races across domains" `Quick
      test_flow_group_first_use_race;
  ]
