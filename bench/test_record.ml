(* The gate comparator on hand-made records: bounds in both
   directions, a metric the record lacks, and records that are
   missing or malformed, which must fail the gate without raising. *)

let check_bool = Alcotest.(check bool)
let temp () = Filename.temp_file "record" ".json"

let file contents =
  let path = temp () in
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  path

let outcome ?(name = "m") better value =
  {
    Record.workload = "test";
    metrics = [ Record.metric ~bound:0.05 name "u" better value ];
    checks = [];
  }

(* A record holding m = 100; [gate] then runs [name] = [value]. *)
let gate ?name better value =
  let record = temp () in
  Record.write record (outcome better 100.);
  Record.gate ~record ~out:(temp ()) (outcome ?name better value)

let test_bounds () =
  check_bool "higher, just inside" true (gate Record.Higher 95.01);
  check_bool "higher, just outside" false (gate Record.Higher 94.99);
  check_bool "lower, just inside" true (gate Record.Lower 104.99);
  check_bool "lower, just outside" false (gate Record.Lower 105.01)

let test_missing_metric () =
  check_bool "bounded metric absent from the record fails" false
    (gate ~name:"other" Record.Higher 100.)

(* The prove gate's metric, as bench_gate prove records it. *)
let prove = outcome ~name:"mops.b1" Record.Higher 2.4271
let prove_gate record = Record.gate ~record ~out:(temp ()) prove

let test_malformed () =
  List.iter
    (fun contents ->
      check_bool ("malformed record fails: " ^ contents) false
        (prove_gate (file contents)))
    [
      "{ not json";
      "{\"metrics\": 3}";
      "{\"metrics\": [{\"name\": \"mops.b1\", \"unit\": \"Mops\"}]}";
    ]

(* No record, or an output path that is the record itself: the run
   is never compared against its own numbers. *)
let test_no_record () =
  check_bool "prove without a record fails" false
    (prove_gate "no/such/record.json");
  let record = temp () in
  Record.write record (outcome Record.Higher 100.);
  let worse = outcome Record.Higher 50. in
  check_bool "re-pinning over the record still compares" false
    (Record.gate ~record ~out:record worse);
  check_bool "the record was re-pinned" true
    (Record.read record = Ok worse.Record.metrics)

let () =
  Alcotest.run "record"
    [
      ( "record",
        [
          Alcotest.test_case "bounds, higher and lower" `Quick test_bounds;
          Alcotest.test_case "metric missing from record" `Quick
            test_missing_metric;
          Alcotest.test_case "malformed record" `Quick test_malformed;
          Alcotest.test_case "no record" `Quick test_no_record;
        ] );
    ]
