(* The one result format of the bench gates, and the comparator.

   A gate's result is a list of metrics in the shape BENCHMARK.json
   gives the repository benchmark's metrics ({name, unit, better,
   bound}) plus the measured [value], and a list of absolute checks
   the gate computes itself (batch=8 beats batch=1, zero cross-shard
   accesses, ...). Each gate keeps one checked-in record in this
   format, which is both its baseline and its last result.

   [gate] holds a fresh result against that record: a metric with a
   [bound] may be worse than the record's value by at most that
   fraction; a metric without one is only recorded. Every check
   prints one OK or FAIL line. On any failure the gate also prints
   every metric's delta against the record, largest relative change
   first, so whatever moved is on top. A missing or malformed record
   fails the gate: a run is never compared against itself. *)

module J = Sim.Json

type better = Higher | Lower

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float option;  (** Largest allowed relative worsening. *)
  value : float;
}

type check = { label : string; ok : bool; detail : string }
type outcome = { workload : string; metrics : metric list; checks : check list }

let metric ?bound name unit better value = { name; unit; better; bound; value }

(* One metric per sweep point [x], named [name.(key x)]. *)
let series ?(bound = fun _ -> None) ~key name unit better f xs =
  List.map
    (fun x -> metric ?bound:(bound x) (name ^ "." ^ key x) unit better (f x))
    xs

let check label ok fmt =
  Printf.ksprintf (fun detail -> { label; ok; detail }) fmt

(* Values are kept to 4 decimals, so a deterministic metric writes
   the same record on every run and its delta reads exactly 0. *)
let round4 v = Float.round (v *. 1e4) /. 1e4

(* --- The file format --------------------------------------------------- *)

let metric_to_json m =
  J.Obj
    ([
       ("name", J.String m.name);
       ("unit", J.String m.unit);
       ("better", J.String (if m.better = Higher then "higher" else "lower"));
     ]
    @ Option.fold ~none:[] ~some:(fun b -> [ ("bound", J.Float b) ]) m.bound
    @ [ ("value", J.Float (round4 m.value)) ])

let metric_of_json j =
  let str k = Option.bind (J.member k j) J.to_string_opt in
  let num k = Option.bind (J.member k j) J.to_float_opt in
  let better =
    match str "better" with
    | Some "higher" -> Some Higher
    | Some "lower" -> Some Lower
    | _ -> None
  in
  match (str "name", str "unit", better, num "value") with
  | Some name, Some unit, Some better, Some value ->
      Ok { name; unit; better; bound = num "bound"; value }
  | _ -> Error ("malformed metric " ^ J.to_string j)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* One metric per line, so a re-pinned record diffs line by line. *)
let write path o =
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc
        "{\n  \"workload\": %s,\n  \"metrics\": [\n    %s\n  ]\n}\n"
        (J.to_string (J.String o.workload))
        (String.concat ",\n    "
           (List.map (fun m -> J.to_string (metric_to_json m)) o.metrics)))

let parse s =
  match Result.map (J.member "metrics") (J.of_string s) with
  | Error e -> Error e
  | Ok ms -> (
      match Option.bind ms J.to_list_opt with
      | None -> Error "no \"metrics\" list"
      | Some ms ->
          List.fold_right
            (fun m acc ->
              Result.bind acc (fun ms ->
                  Result.map (fun m -> m :: ms) (metric_of_json m)))
            ms (Ok []))

(* Errors name the file; [Sys_error] messages already do. *)
let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> Result.map_error (fun e -> path ^ ": " ^ e) (parse s)

(* --- Comparison -------------------------------------------------------- *)

let find name ms = List.find_opt (fun r -> r.name = name) ms

(* One check per bounded metric, or one for an unreadable record. *)
let compare ~record recorded metrics =
  match recorded with
  | Error e -> [ check "record" false "%s" e ]
  | Ok rs ->
      List.filter_map
        (fun m ->
          Option.map
            (fun bound ->
              match find m.name rs with
              | None -> check m.name false "missing from record %s" record
              | Some r ->
                  let sign, limit =
                    if m.better = Higher then ("<", 1. -. bound)
                    else (">", 1. +. bound)
                  in
                  let edge = limit *. r.value in
                  if (m.better = Higher && m.value >= edge)
                     || (m.better = Lower && m.value <= edge)
                  then
                    check m.name true "%.2f %s (record %.2f)" m.value m.unit
                      r.value
                  else
                    check m.name false "%.2f %s %s %.0f%% of record %.2f"
                      m.value m.unit sign (100. *. limit) r.value)
            m.bound)
        metrics

(* Relative change against the record; a metric the record lacks, or
   one moved off a recorded 0, ranks above any finite change. *)
let relative_change rs m =
  match find m.name rs with
  | None -> Float.infinity
  | Some r ->
      let d = round4 m.value -. r.value in
      if d = 0. then 0.
      else if r.value = 0. then Float.infinity
      else d /. Float.abs r.value

let print_delta ~record rs metrics =
  Printf.printf "delta vs %s, largest relative change first:\n" record;
  let size m = Float.abs (relative_change rs m) in
  List.iter
    (fun m ->
      let was, change =
        match find m.name rs with
        | None -> ("", "not in record")
        | Some r ->
            let rel = relative_change rs m in
            ( Printf.sprintf "%.4f" r.value,
              if Float.is_finite rel then Printf.sprintf "%+.2f%%" (100. *. rel)
              else "from 0" )
      in
      Printf.printf "  %-22s %12s -> %-12.4f %-9s %s\n" m.name was m.value
        m.unit change)
    (List.stable_sort (fun a b -> Float.compare (size b) (size a)) metrics)

(* The record is read before [out] is written: [out] may be the
   record's own path, which re-pins it. *)
let gate ~record ~out o =
  let recorded = read record in
  write out o;
  Printf.printf "wrote %s\n" out;
  let checks = o.checks @ compare ~record recorded o.metrics in
  List.iter
    (fun c ->
      Printf.printf "%s %-20s %s\n" (if c.ok then "OK  " else "FAIL") c.label
        c.detail)
    checks;
  let ok = List.for_all (fun c -> c.ok) checks in
  if not ok then
    print_delta ~record (Result.value recorded ~default:[]) o.metrics;
  ok
