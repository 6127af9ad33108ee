(* Shard 14: domain safety of shared library state under [Domain.spawn]. *)
let () = Alcotest.run "flextoe-domains" [ ("domains", Test_domains.suite) ]
