(* One repetition of a workload, untraced or traced, plus the counter
   snapshots and replays behind the per-layer metrics.

   Everything is read from outside the program: public counters before
   and after the window, wall-clock spans around the benchmark's own
   calls into each layer, and replays of the traced window's inputs
   (frames, connection keys, event times and queue depths) through the
   layers' public functions. *)

module W = Workload
module Dp = Flextoe.Datapath

(* --- Counter snapshots -------------------------------------------------- *)

type snap = {
  events : int;
  cpu_total : int;  (** server host cycles, all cores *)
  cpu_cat : (string * int) list;
  app_busy : Sim.Time.t;  (** server application core *)
  fpc : (string * Sim.Time.t * int) list;  (** pool, summed busy time, FPCs *)
  dma_transfers : int;
  dma_bytes : int;
  dma_retries : int;
  dp : Dp.stats;
  cache : (string * (int * int)) list;  (** lookup / cam / cls / emem -> hits, misses *)
  delivered : int;
  ecn : int;
  dropped : int;  (** fabric loss + queue + unroutable *)
  sched_peak_ready : int;
}

let cache_family name =
  let pre p = String.length name >= String.length p
              && String.sub name 0 (String.length p) = p in
  if pre "pre-lookup" then "lookup"
  else if pre "cam" then "cam"
  else if pre "cls" then "cls"
  else if pre "emem" then "emem"
  else name

let families = [ "lookup"; "cam"; "cls"; "emem" ]

let snap (w : W.world) =
  let dp = Flextoe.datapath w.W.server in
  let cpu = Flextoe.cpu w.W.server in
  let dma = Dp.dma_engine dp in
  let fpc =
    List.fold_left
      (fun acc (pool, _island, fpcs) ->
        let busy = Array.fold_left (fun s f -> s + Nfp.Fpc.busy_time f) 0 fpcs in
        let n = Array.length fpcs in
        match List.assoc_opt pool acc with
        | Some (b, m) -> (pool, (b + busy, m + n)) :: List.remove_assoc pool acc
        | None -> (pool, (busy, n)) :: acc)
      [] (Dp.fpc_pools dp)
    |> List.map (fun (p, (b, n)) -> (p, b, n))
  in
  let cache =
    List.map
      (fun fam ->
        ( fam,
          List.fold_left
            (fun (h, m) (name, hits, misses) ->
              if cache_family name = fam then (h + hits, m + misses) else (h, m))
            (0, 0) (Dp.cache_stats dp) ))
      families
  in
  {
    events = Sim.Engine.events_processed w.W.engine;
    cpu_total = Host.Host_cpu.total_cycles cpu;
    cpu_cat = Host.Host_cpu.cycles_by_category cpu;
    app_busy = Host.Host_cpu.busy_time (List.hd (Flextoe.app_cores w.W.server));
    fpc;
    dma_transfers = Nfp.Dma.transfers_completed dma;
    dma_bytes = Nfp.Dma.bytes_transferred dma;
    dma_retries = Nfp.Dma.retries dma;
    dp = Dp.stats dp;
    cache;
    delivered = Netsim.Fabric.delivered w.W.fabric;
    ecn = Netsim.Fabric.ecn_marked w.W.fabric;
    dropped =
      Netsim.Fabric.(dropped_loss w.W.fabric + dropped_queue w.W.fabric
                     + dropped_unroutable w.W.fabric);
    sched_peak_ready = Dp.sched_peak_ready dp;
  }

(* --- Traced-window capture ---------------------------------------------- *)

let max_frames = 20_000
let max_events = 2_000_000

type capture = {
  spans : Spans.t;
  mutable frames : Tcp.Segment.frame list;  (** first [max_frames] transmitted, newest first *)
  mutable n_frames : int;  (** all transmitted in the window *)
  mutable frame_bytes : int;
  keys : Grow.t;  (** flow key of every frame the server NIC received *)
  ev_time : Grow.t;  (** pop time of each event (first [max_events]) *)
  ev_depth : Grow.t;  (** queue length after it *)
  mutable ev_initial : int;
  mutable pending_peak : int;
  mutable dma_queued_peak : int;
}

(* Dense enough to key a CAM; unique per 4-tuple in a two-node world. *)
let flow_key (s : Tcp.Segment.t) =
  (s.Tcp.Segment.src_port lsl 16) lor s.Tcp.Segment.dst_port
  lor ((s.Tcp.Segment.src_ip land 0xff) lsl 32)

let slice = Sim.Time.us 10

let run_traced (w : W.world) =
  let sp = Spans.create () in
  let cap =
    {
      spans = sp;
      frames = [];
      n_frames = 0;
      frame_bytes = 0;
      keys = Grow.create ~cap:65536 ();
      ev_time = Grow.create ~cap:65536 ();
      ev_depth = Grow.create ~cap:65536 ();
      ev_initial = 0;
      pending_peak = 0;
      dma_queued_peak = 0;
    }
  in
  let root = Spans.id sp "bench.window" in
  let run_id = Spans.id sp "sim.engine.run" in
  let tx_id = Spans.id sp "netsim.fabric.transmit" in
  let rx_id = Spans.id sp "flextoe.datapath.ingress" in
  w.W.probe <-
    Some
      {
        W.spans = sp;
        send_id = Spans.id sp "flextoe.libtoe.send";
        recv_id = Spans.id sp "flextoe.libtoe.recv";
      };
  let srv_port = Dp.fabric_port (Flextoe.datapath w.W.server) in
  let cli_port = Dp.fabric_port (Flextoe.datapath w.W.client) in
  let tx_hook frame k =
    if cap.n_frames < max_frames then cap.frames <- frame :: cap.frames;
    cap.n_frames <- cap.n_frames + 1;
    cap.frame_bytes <- cap.frame_bytes + Tcp.Segment.frame_wire_len frame;
    Spans.enter sp tx_id;
    k frame;
    Spans.leave sp
  in
  let rx_hook ~server frame k =
    if server then Grow.push cap.keys (flow_key frame.Tcp.Segment.seg);
    Spans.enter sp rx_id;
    k frame;
    Spans.leave sp
  in
  List.iter
    (fun (p, server) ->
      Netsim.Fabric.set_tx_fault p (Some tx_hook);
      Netsim.Fabric.set_rx_fault p (Some (rx_hook ~server)))
    [ (srv_port, true); (cli_port, false) ];
  let e = w.W.engine in
  let dma = Dp.dma_engine (Flextoe.datapath w.W.server) in
  let t1 = W.t1 w.W.spec in
  cap.ev_initial <- Sim.Engine.pending e;
  Spans.enter sp root;
  (* Step event by event up to a no-op sentinel at each slice end, so
     every event's time and the queue depth after it are recorded. *)
  while Sim.Engine.now e < t1 do
    let until = min t1 (Sim.Engine.now e + slice) in
    let fired = ref false in
    Sim.Engine.schedule_at e until (fun () -> fired := true);
    Spans.enter sp run_id;
    while (not !fired) && Sim.Engine.step e do
      let depth = Sim.Engine.pending e in
      if Grow.length cap.ev_time < max_events then begin
        Grow.push cap.ev_time (Sim.Engine.now e);
        Grow.push cap.ev_depth depth
      end;
      if depth > cap.pending_peak then cap.pending_peak <- depth;
      let q = Nfp.Dma.queued dma in
      if q > cap.dma_queued_peak then cap.dma_queued_peak <- q
    done;
    Spans.leave sp
  done;
  (* events at exactly [t1] queued behind the last sentinel *)
  Spans.enter sp run_id;
  Sim.Engine.run ~until:t1 e;
  Spans.leave sp;
  Spans.leave sp;
  List.iter
    (fun p ->
      Netsim.Fabric.set_tx_fault p None;
      Netsim.Fabric.set_rx_fault p None)
    [ srv_port; cli_port ];
  w.W.probe <- None;
  cap

(* --- One repetition ----------------------------------------------------- *)

type rep = {
  outcome : W.outcome;
  srv_rx_bytes : int;  (** request bytes read by the server app in the window *)
  before : snap;
  after : snap;
  setup_s : float;
  window_ns : int;  (** wall time of the window *)
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  capture : capture option;
  stage_cycles : (string * float) list;  (** traced only: stage -> mean cycles *)
  peak_heap_mb : float;
      (** the world's process, [Gc] top heap less the heap it inherited
          from the parent at the fork *)
}

let stage_cycles (w : W.world) =
  match Flextoe.scope w.W.server with
  | None -> []
  | Some sc ->
      List.filter_map
        (fun (name, h) ->
          let pre = "stage/" in
          let lp = String.length pre in
          if String.length name > lp && String.sub name 0 lp = pre then
            Some (String.sub name lp (String.length name - lp), Sim.Stats.Histogram.mean h)
          else None)
        (Sim.Scope.histograms sc)

let run_here ?knobs ~traced spec ~seed =
  let inherited = (Gc.quick_stat ()).Gc.heap_words in
  let start = Clock.now_ns () in
  let w = W.build ?knobs ~scope:traced spec ~seed in
  W.advance w spec.W.t0;
  let setup_s = Clock.elapsed_s start in
  let before = snap w in
  let gc0 = Gc.quick_stat () in
  let wall0 = Clock.now_ns () in
  let capture =
    if traced then Some (run_traced w)
    else begin
      W.advance w (W.t1 spec);
      None
    end
  in
  let window_ns = Clock.now_ns () - wall0 in
  let gc1 = Gc.quick_stat () in
  let after = snap w in
  let outcome = W.finish w in
  {
    outcome;
    srv_rx_bytes = w.W.srv_rx_bytes;
    before;
    after;
    setup_s;
    window_ns;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    promoted_words = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    capture;
    stage_cycles = stage_cycles w;
    peak_heap_mb =
      float_of_int (((Gc.quick_stat ()).Gc.top_heap_words - inherited) * (Sys.word_size / 8))
      /. 1048576.;
  }

(* Each world runs in a forked child, so that its heap peak, GC
   counters and set-up start from the same fresh state and its memory
   is returned when it ends. The child sends the repetition back
   marshalled; an exception in it is re-raised here. *)
let run ?knobs ~traced spec ~seed : rep =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      let r =
        match run_here ?knobs ~traced spec ~seed with
        | rep -> Ok rep
        | exception e -> Error (Printexc.to_string e)
      in
      Marshal.to_channel oc (r : (rep, string) result) [];
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let r : (rep, string) result =
        try Marshal.from_channel ic with End_of_file -> Error "world process died"
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match r with Ok rep -> rep | Error e -> failwith ("world: " ^ e))

(* --- Replays ------------------------------------------------------------ *)

let replay_budget_ns = 40_000_000

(* Median over passes of ns per item; passes repeat until
   [replay_budget_ns] of wall time is spent (at least 3). [pass]
   returns items done. *)
let time_passes pass =
  let per = ref [] and spent = ref 0 and passes = ref 0 in
  while !passes < 3 || !spent < replay_budget_ns do
    let t = Clock.now_ns () in
    let items = pass () in
    let d = Clock.now_ns () - t in
    spent := !spent + d;
    incr passes;
    if items > 0 then per := (float_of_int d /. float_of_int items) :: !per
  done;
  match List.sort compare !per with
  | [] -> 0.
  | l -> List.nth l (List.length l / 2)

type replays = {
  encode_ns : float;
  decode_ns : float;
  csum_ns_per_kb : float;
  reasm_ns : float;
  flow_group_ns : float;
  cam_find_ns : float;
  queue_push_pop_ns : float;
  replay_errors : string list;
}

let replay_wire frames =
  let encoded = Array.map Tcp.Wire.encode frames in
  let encode_ns =
    time_passes (fun () ->
        Array.iter (fun f -> ignore (Sys.opaque_identity (Tcp.Wire.encode f))) frames;
        Array.length frames)
  in
  let errors = ref [] in
  Array.iteri
    (fun i b ->
      match Tcp.Wire.decode b with
      | Ok f
        when Bytes.equal f.Tcp.Segment.seg.Tcp.Segment.payload
               frames.(i).Tcp.Segment.seg.Tcp.Segment.payload -> ()
      | Ok _ -> errors := Printf.sprintf "wire: frame %d payload changed by encode/decode" i :: !errors
      | Error e -> errors := Format.asprintf "wire: frame %d: %a" i Tcp.Wire.pp_error e :: !errors)
    encoded;
  let decode_ns =
    time_passes (fun () ->
        Array.iter (fun b -> ignore (Sys.opaque_identity (Tcp.Wire.decode b))) encoded;
        Array.length encoded)
  in
  let bytes = Array.fold_left (fun s b -> s + Bytes.length b) 0 encoded in
  let csum_ns_per_byte =
    time_passes (fun () ->
        Array.iter
          (fun b ->
            ignore (Sys.opaque_identity (Tcp.Checksum.internet b ~off:0 ~len:(Bytes.length b))))
          encoded;
        bytes)
  in
  (encode_ns, decode_ns, csum_ns_per_byte *. 1024., List.rev !errors)

(* Each flow's payload-bearing segments, in capture order, through a
   fresh single-interval reassembler. *)
let replay_reassembly frames =
  let flows = Hashtbl.create 64 in
  Array.iter
    (fun (f : Tcp.Segment.frame) ->
      let s = f.Tcp.Segment.seg in
      if Tcp.Segment.payload_len s > 0 then begin
        let k = (s.Tcp.Segment.src_ip, s.Tcp.Segment.src_port, s.Tcp.Segment.dst_port) in
        let l = try Hashtbl.find flows k with Not_found -> [] in
        Hashtbl.replace flows k ((s.Tcp.Segment.seq, Tcp.Segment.payload_len s) :: l)
      end)
    frames;
  let flows = Hashtbl.fold (fun _ l acc -> Array.of_list (List.rev l) :: acc) flows [] in
  let n = List.fold_left (fun s a -> s + Array.length a) 0 flows in
  time_passes (fun () ->
      List.iter
        (fun segs ->
          let r = Tcp.Reassembly.create ~next:(fst segs.(0)) in
          Array.iter
            (fun (seq, len) ->
              ignore (Sys.opaque_identity (Tcp.Reassembly.process r ~seq ~len ~window:(1 lsl 30))))
            segs)
        flows;
      n)

let replay_flow_group frames ~groups =
  time_passes (fun () ->
      Array.iter
        (fun (f : Tcp.Segment.frame) ->
          ignore
            (Sys.opaque_identity
               (Tcp.Flow.flow_group (Tcp.Flow.of_segment_rx f.Tcp.Segment.seg) ~groups)))
        frames;
      Array.length frames)

let replay_cam keys ~entries =
  let keys = Grow.to_array keys in
  time_passes (fun () ->
      let cam = Nfp.Cam.create ~entries in
      Array.iter
        (fun k ->
          match Nfp.Cam.find cam k with
          | Some () -> ()
          | None -> ignore (Nfp.Cam.insert cam k ()))
        keys;
      Array.length keys)

(* The traced window's event times and queue depths, replayed through
   a fresh [Sim.Event_queue]: each step pops the earliest entry, then
   pushes (or pops) until the queue has the recorded depth. A pushed
   entry is due at a recorded future pop time drawn uniformly from the
   queue's current horizon. *)
let replay_queue cap =
  let n = Grow.length cap.ev_time in
  if n < 2 then 0.
  else begin
    let time i = Grow.get cap.ev_time (min (n - 1) i) in
    let rng = Random.State.make [| 7 |] in
    (* per step: a list of push times, or a negative count of extra pops *)
    let plan = Array.make n [||] and extra = Array.make n 0 in
    let depth = ref cap.ev_initial in
    for i = 0 to n - 1 do
      let after_pop = max 0 (!depth - 1) in
      let target = Grow.get cap.ev_depth i in
      if target >= after_pop then
        plan.(i) <-
          Array.init (target - after_pop) (fun _ ->
              time (i + 1 + Random.State.int rng (max 1 target)))
      else extra.(i) <- after_pop - target;
      depth := target
    done;
    let prefill = Array.init cap.ev_initial (fun j -> time j) in
    time_passes (fun () ->
        let q = Sim.Event_queue.create () in
        Array.iter (fun t -> Sim.Event_queue.push q t 0) prefill;
        for i = 0 to n - 1 do
          ignore (Sys.opaque_identity (Sim.Event_queue.pop q));
          Array.iter (fun t -> Sim.Event_queue.push q t i) plan.(i);
          for _ = 1 to extra.(i) do
            ignore (Sim.Event_queue.pop q)
          done
        done;
        n)
  end

let replays cap =
  let frames = Array.of_list (List.rev cap.frames) in
  let encode_ns, decode_ns, csum_ns_per_kb, replay_errors = replay_wire frames in
  let cfg = W.config ~scope:false in
  {
    encode_ns;
    decode_ns;
    csum_ns_per_kb;
    reasm_ns = replay_reassembly frames;
    flow_group_ns =
      replay_flow_group frames
        ~groups:cfg.Flextoe.Config.parallelism.Flextoe.Config.flow_groups;
    cam_find_ns =
      replay_cam cap.keys ~entries:cfg.Flextoe.Config.params.Nfp.Params.cam_entries;
    queue_push_pop_ns = replay_queue cap;
    replay_errors;
  }
