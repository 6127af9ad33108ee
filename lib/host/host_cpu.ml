type work = { cycles : int; category : string; k : unit -> unit }

type core = {
  engine : Sim.Engine.t;
  freq : Sim.Time.Freq.t;
  pending : work Queue.t;
  mutable busy : bool;
  mutable busy_time : Sim.Time.t;
  accounting : (string, int ref) Hashtbl.t;
  rng : Sim.Rng.t;
  mutable noise_interval : int;  (* busy cycles per expected stall *)
  mutable noise_mean : int;
}

type t = {
  e : Sim.Engine.t;
  f : Sim.Time.Freq.t;
  cs : core array;
}

let create engine ?(freq = Sim.Time.Freq.of_ghz 2.0) ~cores () =
  if cores <= 0 then invalid_arg "Host_cpu.create: cores must be positive";
  {
    e = engine;
    f = freq;
    cs =
      Array.init cores (fun _ ->
          {
            engine;
            freq;
            pending = Queue.create ();
            busy = false;
            busy_time = 0;
            accounting = Hashtbl.create 8;
            rng = Sim.Rng.split (Sim.Engine.rng engine);
            noise_interval = 0;
            noise_mean = 0;
          });
  }

let set_noise t ~interval_cycles ~mean_cycles =
  Array.iter
    (fun c ->
      c.noise_interval <- interval_cycles;
      c.noise_mean <- mean_cycles)
    t.cs

let engine t = t.e
let cores t = Array.length t.cs
let core t i = t.cs.(i)
let freq t = t.f

let account c category cycles =
  let r =
    match Hashtbl.find_opt c.accounting category with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.replace c.accounting category r;
        r
  in
  r := !r + cycles

let rec start c (w : work) =
  c.busy <- true;
  account c w.category w.cycles;
  let noise =
    if c.noise_interval > 0 then begin
      let p =
        Float.min 0.25
          (float_of_int w.cycles /. float_of_int c.noise_interval)
      in
      if Sim.Rng.bool c.rng p then
        int_of_float
          (Sim.Rng.exponential c.rng (float_of_int c.noise_mean))
      else 0
    end
    else 0
  in
  if noise > 0 then account c "noise" noise;
  let dur = Sim.Time.Freq.cycles c.freq (w.cycles + noise) in
  c.busy_time <- c.busy_time + dur;
  Sim.Engine.schedule c.engine dur (fun () ->
      c.busy <- false;
      w.k ();
      if (not c.busy) && not (Queue.is_empty c.pending) then
        start c (Queue.pop c.pending))

let exec c ?(category = "other") ~cycles k =
  let w = { cycles; category; k } in
  if c.busy then Queue.push w c.pending else start c w

let exec_now c ?category ~cycles () = exec c ?category ~cycles (fun () -> ())
let busy_time c = c.busy_time
let queue_length c = Queue.length c.pending

let cycles_by_category t =
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun c ->
      Hashtbl.iter
        (fun cat r ->
          let cur = Option.value ~default:0 (Hashtbl.find_opt tbl cat) in
          Hashtbl.replace tbl cat (cur + !r))
        c.accounting)
    t.cs;
  Hashtbl.fold (fun cat n acc -> (cat, n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let total_cycles t =
  List.fold_left (fun acc (_, n) -> acc + n) 0 (cycles_by_category t)

let utilization c ~total =
  if total <= 0 then 0.
  else Sim.Time.to_sec c.busy_time /. Sim.Time.to_sec total
