(* Self-tests of the benchmark's own arithmetic and generators, and of the
   traced simulator assembly's equivalence with the untraced deployment.

     dune build @mdccbench/test/runtest *)

open Mdccbench
module Rng = Mdcc_util.Rng

(* ---------------- percentile selection ---------------- *)

let sorted n = Array.init n (fun i -> float_of_int (i + 1))

let test_rank () =
  Alcotest.(check int) "p50 of 100" 50 (Stat.rank ~n:100 50.0);
  Alcotest.(check int) "p99 of 1000" 990 (Stat.rank ~n:1000 99.0);
  Alcotest.(check int) "p100 clamps" 7 (Stat.rank ~n:7 100.0);
  Alcotest.(check int) "tiny p clamps to 1" 1 (Stat.rank ~n:7 0.001);
  Alcotest.(check (float 0.0)) "nearest rank value" 99.0 (Stat.at (sorted 100) 99.0);
  Alcotest.(check (float 0.0)) "median value" 50.0 (Stat.at (sorted 100) 50.0)

let test_highest_supported () =
  let pct n = Stat.highest_supported ~n in
  Alcotest.(check (option (float 0.0))) "5 samples: none" None (pct 5);
  Alcotest.(check (option (float 0.0))) "20 samples: p50" (Some 50.0) (pct 20);
  Alcotest.(check (option (float 0.0))) "100 samples: p90" (Some 90.0) (pct 100);
  Alcotest.(check (option (float 0.0))) "999 samples: p90" (Some 90.0) (pct 999);
  Alcotest.(check (option (float 0.0))) "1000 samples: p99" (Some 99.0) (pct 1000);
  Alcotest.(check (option (float 0.0))) "10000 samples: p99.9" (Some 99.9) (pct 10000);
  let s = Stat.summarize (sorted 1000) in
  Alcotest.(check int) "count reported" 1000 s.Stat.n;
  Alcotest.(check int) "samples beyond the tail" 10 s.Stat.tail_beyond;
  Alcotest.(check int) "samples beyond p99" 10 s.Stat.p99_beyond;
  Alcotest.(check (float 0.0)) "tail value" 990.0 s.Stat.tail

let test_median () =
  Alcotest.(check (float 0.0)) "odd" 2.0 (Stat.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 0.0)) "even" 2.5 (Stat.median [ 4.0; 1.0; 3.0; 2.0 ])

(* ---------------- open-loop arithmetic ---------------- *)

let test_open_loop () =
  let start_ms = 1000.0 and rate = 4000.0 in
  Alcotest.(check (float 1e-9)) "first due at start" 1000.0 (Keygen.due_ms ~start_ms ~rate 0);
  Alcotest.(check (float 1e-9)) "4000/s = one per 0.25 ms" 1000.25 (Keygen.due_ms ~start_ms ~rate 1);
  Alcotest.(check (float 1e-9)) "one second later" 2000.0 (Keygen.due_ms ~start_ms ~rate 4000);
  Alcotest.(check (float 1e-9)) "early send is not late" 0.0 (Keygen.lateness_ms ~due:10.0 ~sent:9.5);
  Alcotest.(check (float 1e-9)) "late send" 1.5 (Keygen.lateness_ms ~due:10.0 ~sent:11.5);
  (* Latency runs from the due time, so generator lateness is included. *)
  Alcotest.(check (float 1e-9)) "latency from due" 3.0 (Keygen.latency_ms ~due:10.0 ~completed:13.0);
  Alcotest.(check int) "nothing due before start" 0 (Keygen.due_count ~start_ms ~rate ~now_ms:999.0);
  Alcotest.(check int) "request 0 due at start" 1 (Keygen.due_count ~start_ms ~rate ~now_ms:1000.0);
  for i = 0 to 200 do
    let due = Keygen.due_ms ~start_ms ~rate i in
    Alcotest.(check int) "due_count agrees with due_ms" (i + 1)
      (Keygen.due_count ~start_ms ~rate ~now_ms:(due +. 1e-6))
  done

(* ---------------- seeded generators ---------------- *)

let test_read_mix () =
  let gen seed = Keygen.read_mix (Rng.create seed) ~keys:1000 ~conns:2 ~count:20000 in
  Alcotest.(check bool) "same seed, same stream" true (gen 5 = gen 5);
  Alcotest.(check bool) "different seed, different stream" false (gen 5 = gen 6);
  let ops = gen 5 in
  let sets = ref 0 in
  Array.iteri
    (fun i (conn, op) ->
      Alcotest.(check int) "round-robin connections" (i mod 2) conn;
      match op with
      | Keygen.Set k ->
        incr sets;
        Alcotest.(check int) "a connection writes only its own keys" conn (k mod 2)
      | Keygen.Get k -> Alcotest.(check bool) "key in range" true (k >= 0 && k < 1000)
      | Keygen.Cas _ | Keygen.Txn _ -> Alcotest.fail "read mix has only get and set")
    ops;
  let share = float_of_int !sets /. 20000.0 in
  Alcotest.(check bool) "about 10% sets" true (share > 0.09 && share < 0.11)

let test_write_mix () =
  let z seed = Keygen.zipf (Rng.create seed) ~n:1000 ~s:0.9 in
  let gen seed = Keygen.write_mix (z seed) (Rng.create (seed + 1)) ~count:20000 in
  Alcotest.(check bool) "same seed, same stream" true (gen 3 = gen 3);
  let ops = gen 3 in
  let writes =
    Array.fold_left (fun acc op -> match op with Keygen.Get _ -> acc | _ -> acc + 1) 0 ops
  in
  let share = float_of_int writes /. 20000.0 in
  Alcotest.(check bool) "about 80% writes" true (share > 0.78 && share < 0.82);
  Array.iter
    (function
      | Keygen.Txn (a, b, c) ->
        Alcotest.(check bool) "txn keys distinct" true (a <> b && b <> c && a <> c)
      | _ -> ())
    ops;
  (* Skew: the hottest rank is the permuted image of rank 0 and draws far
     more than a uniform 1/1000 share. *)
  let zz = z 3 in
  let rng = Rng.create 9 in
  let hot = zz.Keygen.perm.(0) in
  let hits = ref 0 in
  for _ = 1 to 10000 do
    if Keygen.zipf_draw zz rng = hot then incr hits
  done;
  Alcotest.(check bool) "hottest key well above uniform" true (!hits > 300);
  Alcotest.(check int) "rank of u=0" 0 (Keygen.zipf_rank zz 0.0);
  Alcotest.(check int) "rank of u~1" 999 (Keygen.zipf_rank zz 0.9999999999)

(* ---------------- traced assembly equivalence ---------------- *)

let short_spec seed =
  { Mdcc_workload.Runner.clients_per_dc = Array.make 5 4; warmup = 500.0; duration = 2500.0;
    drain = 3000.0; seed }

let test_traced_equivalence () =
  let seed = 4 in
  let rows = Sim_wl.rows ~seed in
  let h, obs = Sim_wl.setup ~seed ~rows in
  let plain = Sim_wl.run_episode (short_spec seed) h obs in
  let tobs = Mdcc_obs.Obs.create () in
  let tracer, tr = Sim_wl.traced_setup ~seed ~rows ~obs:tobs in
  let traced = Sim_wl.run_episode (short_spec seed) tr.Sim_wl.t_harness tobs in
  let tally e = e.Sim_wl.e_tally in
  Alcotest.(check bool) "some commits" true ((tally plain).Sim_wl.committed > 50);
  Alcotest.(check int) "committed" (tally plain).Sim_wl.committed (tally traced).Sim_wl.committed;
  Alcotest.(check int) "aborted" (tally plain).Sim_wl.aborted (tally traced).Sim_wl.aborted;
  Alcotest.(check bool) "identical commit latencies" true
    (plain.Sim_wl.e_latencies = traced.Sim_wl.e_latencies);
  let sent, bytes, delivered = Sim_wl.net_totals obs in
  let stats = Mdcc_sim.Network.stats tr.Sim_wl.t_net in
  Alcotest.(check int) "messages sent" sent stats.Mdcc_sim.Network.sent;
  Alcotest.(check int) "messages delivered" delivered stats.Mdcc_sim.Network.delivered;
  let _, tbytes, _ = Sim_wl.net_totals tobs in
  Alcotest.(check int) "bytes sent" bytes tbytes;
  (* Every delivered message was timed exactly once. *)
  let timed_messages =
    List.fold_left
      (fun acc (name, a) ->
        if String.starts_with ~prefix:"coord." name || String.starts_with ~prefix:"storage." name
        then
          if String.equal name "coord.Submit" || String.equal name "coord.Read" then acc
          else acc + a.Tracer.count
        else acc)
      0 (Tracer.buckets tracer)
  in
  Alcotest.(check int) "one timing per delivery" delivered timed_messages;
  Alcotest.(check (list string)) "output checks pass" [] traced.Sim_wl.e_problems

let () =
  Alcotest.run "mdccbench"
    [
      ( "percentiles",
        [
          Alcotest.test_case "nearest rank" `Quick test_rank;
          Alcotest.test_case "highest supported tail" `Quick test_highest_supported;
          Alcotest.test_case "median" `Quick test_median;
        ] );
      ("open loop", [ Alcotest.test_case "due time and lateness" `Quick test_open_loop ]);
      ( "generators",
        [
          Alcotest.test_case "wire-read mix" `Quick test_read_mix;
          Alcotest.test_case "wire-write mix" `Quick test_write_mix;
        ] );
      ( "traced assembly",
        [ Alcotest.test_case "same execution as Setup.make" `Quick test_traced_equivalence ] );
    ]
