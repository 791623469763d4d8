(* The --check comparison on hand-made documents: each case renders a
   baseline and a current measurement to mdcc.bench.v2 JSON, parses both
   back, and asserts which lines pass, fail or skip. *)

module H = Bench_harness.Harness

let sec ?(cores = 4) ?(jobs = 1) name metrics = { H.name; ops = 100; jobs; cores; metrics }

let speedup ?cores v = sec ?cores ~jobs:4 "sweep.parallel" [ ("speedup", H.Ratio, v) ]

let words v = sec "events.network_send" [ ("minor_words_per_op", H.Det, v) ]

(* Through the JSON writer and parser, as --check sees a committed file. *)
let roundtrip sections =
  match H.of_json (H.to_json sections) with
  | Ok s -> s
  | Error msg -> Alcotest.failf "roundtrip: %s" msg

let check ~baseline ~current = H.compare ~baseline:(roundtrip baseline) ~current:(roundtrip current)

let failures lines = List.filter (fun l -> not l.H.ok) lines

let mentions word l =
  let n = String.length word in
  let rec go i = i + n <= String.length l.H.text && (String.sub l.H.text i n = word || go (i + 1)) in
  go 0

let passes name lines = Alcotest.(check int) name 0 (List.length (failures lines))

let fails name lines = Alcotest.(check bool) name true (failures lines <> [])

let test_det_small_move () = passes "det +1% passes" (check ~baseline:[ words 51.0 ] ~current:[ words 51.51 ])

let test_det_large_move () =
  fails "det +3% fails" (check ~baseline:[ words 51.0 ] ~current:[ words 52.53 ]);
  fails "det -3% fails (stale baseline)" (check ~baseline:[ words 51.0 ] ~current:[ words 49.47 ])

let test_ratio_floor () =
  let lines = check ~baseline:[ speedup 1.4 ] ~current:[ speedup 1.5 ] in
  Alcotest.(check bool) "floor failure" true (List.exists (mentions "floor") (failures lines))

let test_ratio_starved_current () =
  let lines = check ~baseline:[ speedup 2.5 ] ~current:[ speedup ~cores:2 1.5 ] in
  passes "starved run is not judged" lines;
  Alcotest.(check bool) "SKIPPING printed" true (List.exists (mentions "SKIPPING") lines)

let test_ratio_starved_baseline () =
  (* 2.1x would fail the 20% rule against 3.0x; a starved baseline skips
     that rule only. *)
  let lines = check ~baseline:[ speedup ~cores:1 3.0 ] ~current:[ speedup 2.1 ] in
  passes "relative rule skipped" lines;
  Alcotest.(check bool) "SKIPPING printed" true (List.exists (mentions "SKIPPING") lines);
  fails "floor still enforced" (check ~baseline:[ speedup ~cores:1 3.0 ] ~current:[ speedup 1.5 ])

let test_ratio_regression () =
  fails "25% speedup regression fails" (check ~baseline:[ speedup 3.0 ] ~current:[ speedup 2.25 ]);
  passes "15% speedup regression passes" (check ~baseline:[ speedup 3.0 ] ~current:[ speedup 2.55 ])

let test_info_never_gated () =
  let wall v = sec "wire" [ ("p99_ms", H.Info, v) ] in
  passes "info x10 passes" (check ~baseline:[ wall 1.0 ] ~current:[ wall 10.0 ])

let test_missing_section () =
  let lines = check ~baseline:[ words 51.0 ] ~current:[ words 51.0; speedup 2.5 ] in
  match failures lines with
  | [ l ] -> Alcotest.(check bool) "names the section" true (mentions "sweep.parallel" l)
  | ls -> Alcotest.failf "expected one failure, got %d" (List.length ls)

let test_unmeasured_section () =
  fails "baseline section not measured" (check ~baseline:[ words 51.0; speedup 2.5 ] ~current:[ words 51.0 ])

let () =
  Alcotest.run "bench"
    [
      ( "check",
        [
          Alcotest.test_case "det +1% passes" `Quick test_det_small_move;
          Alcotest.test_case "det +-3% fails" `Quick test_det_large_move;
          Alcotest.test_case "speedup below floor fails" `Quick test_ratio_floor;
          Alcotest.test_case "cores < jobs skips speedup rules" `Quick test_ratio_starved_current;
          Alcotest.test_case "starved baseline skips only the relative rule" `Quick
            test_ratio_starved_baseline;
          Alcotest.test_case "speedup regression rule" `Quick test_ratio_regression;
          Alcotest.test_case "info is never gated" `Quick test_info_never_gated;
          Alcotest.test_case "section missing from baseline fails" `Quick test_missing_section;
          Alcotest.test_case "unmeasured baseline section fails" `Quick test_unmeasured_section;
        ] );
    ]
