(* Unit tests of the benchmark's statistics, stream generators, latency
   accounting and known answers. *)

open Lisa_bench_lib

let floats = Alcotest.(list (float 1e-9))

let range a b = List.init (b - a + 1) (fun i -> float_of_int (a + i))

let test_median_quartiles () =
  (* the values Python's statistics.median / quantiles(n=4) give *)
  Alcotest.(check (float 1e-9)) "median odd" 3. (Stats.median [ 5.; 1.; 3. ]);
  Alcotest.(check (float 1e-9)) "median even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  let q (a, b, c) = [ a; b; c ] in
  Alcotest.check floats "quantiles 1..10" [ 2.75; 5.5; 8.25 ] (q (Stats.quartiles (range 1 10)));
  Alcotest.check floats "quantiles 1..4" [ 1.25; 2.5; 3.75 ] (q (Stats.quartiles (range 1 4)));
  Alcotest.check floats "quantiles 1..5" [ 1.5; 3.; 4.5 ] (q (Stats.quartiles (range 1 5)))

let test_percentile_rule () =
  let tail n = Option.map Stats.pm_label (Stats.tail_pm n) in
  let opt = Alcotest.(option string) in
  Alcotest.check opt "19 samples: no percentile" None (tail 19);
  Alcotest.check opt "20 samples: p50" (Some "p50") (tail 20);
  Alcotest.check opt "100 samples: p90" (Some "p90") (tail 100);
  Alcotest.check opt "999 samples refuse p99" (Some "p95") (tail 999);
  Alcotest.check opt "1000 samples: p99" (Some "p99") (tail 1000);
  Alcotest.check opt "10000 samples: p99.9" (Some "p99.9") (tail 10000);
  let xs = range 1 100 in
  Alcotest.(check (float 0.)) "nearest-rank p99" 99. (Stats.percentile xs 990);
  Alcotest.(check (float 0.)) "nearest-rank p50" 50. (Stats.percentile xs 500)

let draws f n = List.init n (fun _ -> f ())

let test_streams_seeded () =
  let zipf seed = draws (Streams.zipf ~s:1.0 ~n:600 (Streams.rng ~seed ~salt:2)) 500 in
  let poisson seed =
    Array.to_list (Streams.poisson_arrivals (Streams.rng ~seed ~salt:3) ~rate:200. ~duration:2.)
  in
  let perm seed = Array.to_list (Streams.permutation (Streams.rng ~seed ~salt:1) 600) in
  let classes = Array.init 600 (fun k -> k mod 15) in
  let keys hot seed = draws (Streams.serve_keys ~hot ~seed ~classes) 700 in
  Alcotest.(check (list int)) "zipf" (zipf 7) (zipf 7);
  Alcotest.check floats "poisson" (poisson 7) (poisson 7);
  Alcotest.(check (list int)) "permutation" (perm 7) (perm 7);
  Alcotest.(check (list int)) "hot keys" (keys true 7) (keys true 7);
  Alcotest.(check (list int)) "cold keys" (keys false 7) (keys false 7);
  Alcotest.(check bool) "another seed, another stream" false (keys true 7 = keys true 8);
  Alcotest.(check (list int)) "a permutation" (List.init 600 Fun.id)
    (List.sort compare (perm 7));
  (* every class at the same popularity ranks for every seed *)
  let class_seq seed =
    List.filteri (fun i _ -> i < 600) (keys true seed) |> List.map (fun k -> classes.(k))
  in
  Alcotest.(check (list int)) "stratified" (class_seq 7) (class_seq 8);
  (* every key once before any repeats *)
  Alcotest.(check int) "cold keys distinct" 600
    (List.length (List.sort_uniq compare (List.filteri (fun i _ -> i < 600) (keys false 3))));
  let z = zipf 11 in
  let count k = List.length (List.filter (( = ) k) z) in
  Alcotest.(check bool) "rank 0 is the most popular" true (count 0 > count 1 && count 1 > count 10);
  let n = List.length (poisson 5) in
  Alcotest.(check bool) "about rate x duration arrivals" true (n > 340 && n < 460)

let test_latency_from_due () =
  (* the generator stalls 40 ms after the first request: the two
     requests queued behind the stall are charged for it *)
  let t due sent recv = { Streams.due; sent; recv } in
  let reqs = [ t 0. 0. 0.001; t 0.01 0.05 0.051; t 0.02 0.05 0.052 ] in
  let ms f = List.map (fun r -> Float.round (f r *. 1e6) /. 1e3) reqs in
  Alcotest.check floats "latency from due" [ 1.; 41.; 32. ] (ms Streams.latency);
  Alcotest.check floats "generator lateness" [ 0.; 40.; 30. ] (ms Streams.lateness)

let test_known_answers () =
  let reg = Corpus.Synth.registry ~seed:42 ~scale:1 () in
  let system = List.hd reg.Corpus.Registry.systems in
  let cases = Corpus.Registry.cases_of reg system in
  let planted = List.sort compare (List.map Answers.planted_ticket cases) in
  Alcotest.(check (list string)) "v2 fires every planted ticket" planted
    (Answers.expect_system reg system 2);
  Alcotest.(check (list string)) "v1 clean" [] (Answers.expect_system reg system 1);
  Alcotest.(check (list string)) "v3 clean" [] (Answers.expect_system reg system 3);
  let c = List.hd cases in
  Alcotest.(check (list string)) "case fires at v2" [ Answers.planted_ticket c ]
    (Answers.expect_case c 2);
  Alcotest.(check (list int)) "ci blocks the regression stage" [ 2 ] (Answers.expect_blocked c);
  Alcotest.(check (list string)) "tickets of fired rules" [ "SYN-1000"; "SYN-1002" ]
    (Answers.fired [ "SYN-1002.l0"; "SYN-1000.g12.gen"; "SYN-1000.g3" ])

let () =
  Alcotest.run "lisa_bench"
    [
      ( "benchmark.stats",
        [
          Alcotest.test_case "median and quartiles" `Quick test_median_quartiles;
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
        ] );
      ( "benchmark.streams",
        [
          Alcotest.test_case "seeded streams" `Quick test_streams_seeded;
          Alcotest.test_case "latency from due time" `Quick test_latency_from_due;
        ] );
      ("benchmark.answers", [ Alcotest.test_case "known answers" `Quick test_known_answers ]);
    ]
