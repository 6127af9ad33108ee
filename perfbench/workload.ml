(* The benchmark's workloads: world construction, load generator,
   server, and the output checks.

   Each workload is a two-node FlexTOE world (server at [ip_server],
   client at [ip_client]) on one solo [Sim.Engine], built from the
   public [Flextoe.create_node] / [Netsim.Fabric] / [Host.Api] surface.
   The client and server below are the benchmark's own, written
   against [Host.Api] rather than [Host.Rpc], so that every failure is
   counted: refused or aborted connects, connections not established
   when the window opens, open-loop arrivals that find no established
   connection, requests lost with an aborted connection, and requests
   still unanswered after the drain.

   The seed reaches the engine (host-noise stalls, initial sequence
   numbers), the request contents and the open-loop arrivals; nothing
   else varies between seeds.

   Timeline (simulated): connects are issued at time 0; the load runs
   from [gen_start] (closed loops start as soon as a connection is up);
   the measurement window is [t0, t0 + window); then the generator
   stops and the world drains for [drain]. Requests are timed from
   their due time; only requests due inside the window count. *)

type loop =
  | Closed of int  (** requests kept outstanding per connection *)
  | Open of float  (** Poisson arrivals per simulated second *)

type spec = {
  name : string;
  conns : int;
  loop : loop;
  req_bytes : int;  (** request payload, 4-byte framing header excluded *)
  resp_bytes : int option;  (** [None]: the server echoes the request *)
  app_cycles : int;  (** server application cycles per request *)
  gen_start : Sim.Time.t;
  t0 : Sim.Time.t;
  window : Sim.Time.t;
  drain : Sim.Time.t;
  nominal_s : float;
      (** wall cost of one world on a 2-core x86 VM at its slower
          speeds; sizes how many worlds a run of --seconds simulates *)
}

let echo_64 =
  {
    name = "echo_64";
    conns = 32;
    loop = Closed 4;
    req_bytes = 64;
    resp_bytes = None;
    app_cycles = 250;
    gen_start = 0;
    t0 = Sim.Time.ms 1;
    window = Sim.Time.ms 8;
    drain = Sim.Time.us 200;
    nominal_s = 2.4;
  }

let stream_64k =
  {
    name = "stream_64k";
    conns = 2;
    loop = Closed 2;
    req_bytes = 65536;
    resp_bytes = Some 32;
    app_cycles = 250;
    gen_start = 0;
    t0 = Sim.Time.ms 1;
    window = Sim.Time.ms 20;
    drain = Sim.Time.ms 1;
    nominal_s = 5.5;
  }

let flows_1k_open =
  {
    name = "flows_1k_open";
    conns = 1024;
    loop = Open 1.5e6;
    req_bytes = 64;
    resp_bytes = None;
    app_cycles = 250;
    gen_start = Sim.Time.ms 3;
    t0 = Sim.Time.ms 4;
    window = Sim.Time.ms 10;
    drain = Sim.Time.us 500;
    nominal_s = 4.0;
  }

let all = [ echo_64; stream_64k; flows_1k_open ]
let find name = List.find_opt (fun s -> s.name = name) all
let t1 spec = spec.t0 + spec.window

(* A run of [seconds] simulates this many independent worlds. The
   count depends only on [seconds], never on measured speed, so the
   modelled results are a function of (seed, seconds). *)
let worlds spec ~seconds = max 2 (int_of_float (seconds /. spec.nominal_s))

(* Engine seed of world [i] of a run with seed [seed]. *)
let world_seed ~seed i = (seed lsl 8) + i

(* Deliberate defects for the benchmark's self-test: the checks and
   the failure count must be able to fail. *)
type knobs = {
  wrong_echo : bool;  (** the client expects a corrupted echo *)
  misdirect : bool;  (** the client connects to a port nobody listens on *)
  late_connect : bool;
      (** connection 0 is opened just before the window, so it is up
          only after the window opens *)
}

let no_knobs = { wrong_echo = false; misdirect = false; late_connect = false }

let ip_server = 0x0A000001
let ip_client = 0x0A000002
let port = 7

(* --- Request contents ------------------------------------------------- *)

(* A request payload is [conn:4][seq:4][body], the body a slice of a
   seed-derived pool at an offset fixed by (conn, seq), so both ends
   can check content without keeping copies. *)
let pool_slack = 4096

let make_pool ~seed ~len =
  let st = Random.State.make [| seed; 0x5eed |] in
  Bytes.init (len + pool_slack) (fun _ -> Char.chr (Random.State.int st 256))

let body_off ~conn ~seq = ((conn * 7919) + (seq * 104729)) land (pool_slack - 1)

let make_request pool ~req_bytes ~conn ~seq =
  let m = Bytes.create (4 + req_bytes) in
  Bytes.set_int32_be m 0 (Int32.of_int req_bytes);
  Bytes.set_int32_be m 4 (Int32.of_int conn);
  Bytes.set_int32_be m 8 (Int32.of_int seq);
  Bytes.blit pool (body_off ~conn ~seq) m 12 (req_bytes - 8);
  m

(* [a.[aoff ..]] = [b.[boff ..]] over [len] bytes, eight at a time. *)
let equal_sub a aoff b boff len =
  let rec words i =
    if i + 8 > len then bytes i
    else
      Int64.equal
        (Bytes.get_int64_ne a (aoff + i))
        (Bytes.get_int64_ne b (boff + i))
      && words (i + 8)
  and bytes i =
    i >= len
    || (Bytes.get a (aoff + i) = Bytes.get b (boff + i) && bytes (i + 1))
  in
  words 0

(* --- World ------------------------------------------------------------- *)

type req = { due : Sim.Time.t; msg : Bytes.t; in_window : bool }

(* An app-side send queue: messages may exceed the socket buffer. *)
type outq = { items : Bytes.t Queue.t; mutable off : int }

type cconn = {
  idx : int;
  mutable sock : Host.Api.socket option;
  mutable dead : bool;
  dec : Host.Framing.t;
  out : req Queue.t;  (** issued, unanswered, in issue order *)
  sendq : outq;
  mutable seq : int;
}

(* Span ids of the traced run's socket calls. *)
type probe = { spans : Spans.t; send_id : int; recv_id : int }

type world = {
  spec : spec;
  knobs : knobs;
  engine : Sim.Engine.t;
  fabric : Netsim.Fabric.t;
  server : Flextoe.t;
  client : Flextoe.t;
  pool : Bytes.t;
  conns : cconn array;
  rng : Random.State.t;  (** open-loop arrivals and connection choice *)
  mutable probe : probe option;
  (* modelled outcome counters *)
  mutable attempted : int;
  mutable completed : int;  (** responses received inside the window *)
  mutable failed_conns : int;
  mutable unconnected : int;
  mutable lost : int;
  mutable srv_rx_bytes : int;  (** request bytes read by the server app in the window *)
  rtts : Grow.t;  (** ps, requests due in the window *)
  connect_ps : Grow.t;
  mutable errors : int;
  mutable first_errors : string list;
}

let error w fmt =
  Printf.ksprintf
    (fun s ->
      w.errors <- w.errors + 1;
      if List.length w.first_errors < 5 then
        w.first_errors <- w.first_errors @ [ s ])
    fmt

let in_window w now = now >= w.spec.t0 && now < t1 w.spec

let send w (s : Host.Api.socket) b =
  match w.probe with
  | None -> s.send b
  | Some p -> Spans.wrap p.spans p.send_id (fun () -> s.send b)

let recv w (s : Host.Api.socket) =
  match w.probe with
  | None -> s.recv ~max:max_int
  | Some p -> Spans.wrap p.spans p.recv_id (fun () -> s.recv ~max:max_int)

let flush w sock q =
  let rec go () =
    match Queue.peek_opt q.items with
    | None -> ()
    | Some m ->
        let remaining = Bytes.length m - q.off in
        let attempt = min remaining (max 0 (sock.Host.Api.tx_space ())) in
        if attempt > 0 then begin
          let chunk =
            if q.off = 0 && attempt = remaining then m
            else Bytes.sub m q.off attempt
          in
          let n = send w sock chunk in
          if n = remaining then begin
            ignore (Queue.pop q.items);
            q.off <- 0;
            go ()
          end
          else if n > 0 then q.off <- q.off + n
        end
  in
  go ()

let new_outq () = { items = Queue.create (); off = 0 }

(* --- Server ------------------------------------------------------------ *)

let response w req =
  match w.spec.resp_bytes with
  | None -> Host.Framing.encode req
  | Some n ->
      let m = Bytes.make (4 + n) 'R' in
      Bytes.set_int32_be m 0 (Int32.of_int n);
      Bytes.blit req 0 m 4 8;
      m

let check_request w ~expect_conn ~expect_seq req =
  let n = w.spec.req_bytes in
  if Bytes.length req <> n then
    error w "server: request of %d bytes, expected %d" (Bytes.length req) n
  else begin
    let conn = Int32.to_int (Bytes.get_int32_be req 0) in
    let seq = Int32.to_int (Bytes.get_int32_be req 4) in
    (match expect_conn with
    | Some c when c <> conn -> error w "server: conn %d on socket of conn %d" conn c
    | _ -> ());
    if seq <> expect_seq then
      error w "server: conn %d request seq %d, expected %d" conn seq expect_seq
    else if not (equal_sub req 8 w.pool (body_off ~conn ~seq) (n - 8)) then
      error w "server: conn %d request %d body differs" conn seq
  end

let start_server w =
  let ep = Flextoe.endpoint w.server in
  ep.Host.Api.listen ~port ~on_accept:(fun sock ->
      let dec = Host.Framing.create () in
      let q = new_outq () in
      let conn = ref None and next_seq = ref 0 in
      sock.Host.Api.on_writable <- (fun () -> flush w sock q);
      sock.Host.Api.on_readable <-
        (fun () ->
          let chunk = recv w sock in
          if in_window w (Sim.Engine.now w.engine) then
            w.srv_rx_bytes <- w.srv_rx_bytes + Bytes.length chunk;
          Host.Framing.push dec chunk;
          Host.Framing.iter_available dec (fun req ->
              check_request w ~expect_conn:!conn ~expect_seq:!next_seq req;
              if Bytes.length req >= 8 then
                conn := Some (Int32.to_int (Bytes.get_int32_be req 0));
              incr next_seq;
              Host.Host_cpu.exec sock.Host.Api.core ~category:"app"
                ~cycles:w.spec.app_cycles (fun () ->
                  Queue.push (response w req) q.items;
                  flush w sock q))))

(* --- Client ------------------------------------------------------------ *)

(* The request payload the echo must reproduce; the self-test's
   [wrong_echo] expects one flipped bit instead. *)
let expected_echo w (r : req) =
  if not w.knobs.wrong_echo then r.msg
  else begin
    let e = Bytes.copy r.msg in
    Bytes.set e 12 (Char.chr (Char.code (Bytes.get e 12) lxor 1));
    e
  end

let check_response w c (r : req) resp =
  let ok =
    match w.spec.resp_bytes with
    | None ->
        let n = w.spec.req_bytes in
        Bytes.length resp = n && equal_sub resp 0 (expected_echo w r) 4 n
    | Some m ->
        let rec pad i = i >= m || (Bytes.get resp i = 'R' && pad (i + 1)) in
        Bytes.length resp = m && equal_sub resp 0 r.msg 4 8 && pad 8
  in
  if not ok then error w "client: conn %d response does not match its request" c.idx

let issue w c sock =
  let now = Sim.Engine.now w.engine in
  let msg = make_request w.pool ~req_bytes:w.spec.req_bytes ~conn:c.idx ~seq:c.seq in
  c.seq <- c.seq + 1;
  let in_window = in_window w now in
  if in_window then w.attempted <- w.attempted + 1;
  Queue.push { due = now; msg; in_window } c.out;
  Queue.push msg c.sendq.items;
  flush w sock c.sendq

let on_response w c sock resp =
  let now = Sim.Engine.now w.engine in
  match Queue.take_opt c.out with
  | None -> error w "client: conn %d response without a request" c.idx
  | Some r ->
      check_response w c r resp;
      if r.in_window then Grow.push w.rtts (now - r.due);
      if in_window w now then w.completed <- w.completed + 1;
      (match w.spec.loop with
      | Closed _ when now < t1 w.spec -> issue w c sock
      | _ -> ())

let abort w c =
  if not c.dead then begin
    c.dead <- true;
    w.failed_conns <- w.failed_conns + 1;
    Queue.iter (fun r -> if r.in_window then w.lost <- w.lost + 1) c.out;
    Queue.clear c.out
  end

let connect w c =
  let ep = Flextoe.endpoint w.client in
  let started = Sim.Engine.now w.engine in
  let remote_port = if w.knobs.misdirect then port + 1 else port in
  ep.Host.Api.connect ~remote_ip:ip_server ~remote_port ~on_connected:(function
    | Error _ -> abort w c
    | Ok sock when c.dead ->
        (* up too late: already counted as a failed connect at t0 *)
        sock.Host.Api.close ()
    | Ok sock ->
        Grow.push w.connect_ps (Sim.Engine.now w.engine - started);
        c.sock <- Some sock;
        sock.Host.Api.on_error <- (fun () -> abort w c);
        sock.Host.Api.on_peer_closed <- (fun () -> abort w c);
        sock.Host.Api.on_writable <- (fun () -> flush w sock c.sendq);
        sock.Host.Api.on_readable <-
          (fun () ->
            Host.Framing.push c.dec (recv w sock);
            Host.Framing.iter_available c.dec (fun resp ->
                if not c.dead then on_response w c sock resp));
        match w.spec.loop with
        | Closed pipeline ->
            for _ = 1 to pipeline do
              issue w c sock
            done
        | Open _ -> ())

let rec arrival w ~mean_gap_ps () =
  let now = Sim.Engine.now w.engine in
  if now < t1 w.spec then begin
    let c = w.conns.(Random.State.int w.rng (Array.length w.conns)) in
    let counted = in_window w now in
    (match c.sock with
    | Some sock when not c.dead -> issue w c sock
    | _ ->
        if counted then begin
          w.attempted <- w.attempted + 1;
          w.unconnected <- w.unconnected + 1
        end);
    let u = 1. -. Random.State.float w.rng 1. in
    let gap = int_of_float (-.mean_gap_ps *. log u) in
    Sim.Engine.schedule w.engine gap (arrival w ~mean_gap_ps)
  end

let config ~scope =
  {
    Flextoe.Config.default with
    (* Pin the environment-driven modes (FLEXSAN / FLEXSCOPE /
       FLEXGUARD) so the benchmark always measures the default
       pipeline; the traced run turns FlexScope metrics on itself. *)
    Flextoe.Config.san = false;
    scope =
      (if scope then Flextoe.Config.Scope_metrics else Flextoe.Config.Scope_off);
    guard = Flextoe.Config.guard_none;
  }

let build ?(knobs = no_knobs) ?(scope = false) spec ~seed =
  let engine = Sim.Engine.create ~seed:(Int64.of_int seed) () in
  let fabric = Netsim.Fabric.create engine ~seed:(Int64.of_int seed) () in
  let config = config ~scope in
  let server = Flextoe.create_node engine ~fabric ~config ~ip:ip_server () in
  let client = Flextoe.create_node engine ~fabric ~config ~ip:ip_client () in
  let w =
    {
      spec;
      knobs;
      engine;
      fabric;
      server;
      client;
      pool = make_pool ~seed ~len:spec.req_bytes;
      conns =
        Array.init spec.conns (fun idx ->
            {
              idx;
              sock = None;
              dead = false;
              dec = Host.Framing.create ();
              out = Queue.create ();
              sendq = new_outq ();
              seq = 0;
            });
      rng = Random.State.make [| seed; 0xa771 |];
      probe = None;
      attempted = 0;
      completed = 0;
      failed_conns = 0;
      unconnected = 0;
      lost = 0;
      srv_rx_bytes = 0;
      rtts = Grow.create ~cap:65536 ();
      connect_ps = Grow.create ~cap:spec.conns ();
      errors = 0;
      first_errors = [];
    }
  in
  start_server w;
  Array.iter
    (fun c ->
      if knobs.late_connect && c.idx = 0 then
        Sim.Engine.schedule_at engine (spec.t0 - 1) (fun () -> connect w c)
      else connect w c)
    w.conns;
  w.attempted <- spec.conns;
  (* A connection not up when the window opens is a failed connect. *)
  Sim.Engine.schedule_at engine spec.t0 (fun () ->
      Array.iter
        (fun c -> if c.sock = None && not c.dead then begin
             c.dead <- true;
             w.failed_conns <- w.failed_conns + 1
           end)
        w.conns);
  (match spec.loop with
  | Open rate ->
      Sim.Engine.schedule_at engine spec.gen_start
        (arrival w ~mean_gap_ps:(1e12 /. rate))
  | Closed _ -> ());
  w

let advance w until = Sim.Engine.run ~until w.engine

(* Requests due in the window that are still unanswered after the
   drain. *)
let drain w =
  advance w (t1 w.spec + w.spec.drain);
  let unanswered = ref 0 in
  Array.iter
    (fun c ->
      Queue.iter (fun r -> if r.in_window then incr unanswered) c.out)
    w.conns;
  !unanswered

(* --- Outcome ----------------------------------------------------------- *)

type outcome = {
  o_attempted : int;
  o_failed : int;
  o_completed : int;
  o_unanswered : int;
  o_rtts : int array;  (** sorted, ps *)
  o_connect : int array;  (** sorted, ps *)
  o_errors : string list;  (** correctness failures; [] = correct *)
}

let checks w =
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let f = w.fabric in
  let drops =
    Netsim.Fabric.dropped_loss f + Netsim.Fabric.dropped_queue f
    + Netsim.Fabric.dropped_unroutable f
  in
  if drops <> 0 then fail "fabric dropped %d frames" drops;
  List.iter
    (fun (who, n) ->
      let dp = Flextoe.datapath n in
      let st = Flextoe.Datapath.stats dp in
      if Flextoe.Datapath.cross_shard_accesses dp <> 0 then
        fail "%s: %d cross-shard accesses" who
          (Flextoe.Datapath.cross_shard_accesses dp);
      if st.Flextoe.Datapath.rx_dropped_csum <> 0 then
        fail "%s: %d checksum drops" who st.Flextoe.Datapath.rx_dropped_csum;
      if st.Flextoe.Datapath.rx_dropped <> 0 then
        fail "%s: %d segments dropped at RX" who st.Flextoe.Datapath.rx_dropped)
    [ ("server", w.server); ("client", w.client) ];
  List.rev !errs

let finish w =
  let unanswered = drain w in
  let rtts = Grow.to_array w.rtts in
  Array.sort compare rtts;
  let connect = Grow.to_array w.connect_ps in
  Array.sort compare connect;
  
  let failed = w.failed_conns + w.unconnected + w.lost + unanswered in
  let errors =
    (if w.errors > 0 then
       [ Printf.sprintf "%d output mismatches, first: %s" w.errors
           (String.concat "; " w.first_errors) ]
     else [])
    @ checks w
  in
  {
    o_attempted = w.attempted;
    o_failed = failed;
    o_completed = w.completed;
    o_unanswered = unanswered;
    o_rtts = rtts;
    o_connect = connect;
    o_errors = errors;
  }
