(* The four workloads, each producing one result: output-check accounting,
   metrics (name, value, unit) and human-readable notes.

   Untraced runs ([~trace:false]) report the end-to-end metrics.  Traced
   runs measure an untraced baseline and then a traced run of the same
   inputs, report the per-layer metrics of the traced part, and the
   tracing overhead as the traced cost over the untraced one. *)

module Rng = Mdcc_util.Rng
module Prof = Mdcc_obs.Prof
module Obs = Mdcc_obs.Obs
module Registry = Mdcc_obs.Registry
module Fvec = Stat.Fvec

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  notes : string list;
}

let workloads = [ "wire-read"; "wire-write"; "sim-tpcw"; "chaos-sweep" ]

let merge_sorted vs =
  let a = Array.concat (List.map (fun v -> Array.sub v.Fvec.data 0 v.Fvec.len) vs) in
  Array.sort Float.compare a;
  a

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* How many fixed-size trials (episodes, batches) a run of [seconds] makes:
   fixed by [seconds] alone, never by how fast the build is. *)
let repeats ~seconds ~nominal_s ~at_least =
  max at_least (int_of_float (Float.round (seconds /. nominal_s)))

let fi = float_of_int

let counter counters name = try List.assoc name counters with Not_found -> 0

let sum_prefix counters prefix =
  List.fold_left
    (fun acc (n, v) -> if String.starts_with ~prefix n then acc + v else acc)
    0 counters

let series name xs =
  Printf.sprintf "%s (per window): [%s]" name
    (String.concat ", " (List.map (Printf.sprintf "%.0f") xs))

(* Protocol outcome ratios from a registry's counters. *)
let protocol_ratios counters ~write_requests =
  let c = counter counters in
  let submitted = fi (c "txn_submitted") in
  let fast = fi (c "fast_commit") and assisted = fi (c "assisted_commit") in
  [
    ("core.fast_ratio", ratio fast (fast +. assisted), "ratio");
    ("core.collisions_per_txn", ratio (fi (c "collision")) submitted, "count");
    ("core.aborts_per_txn", ratio (fi (c "abort_conflict" + c "abort_constraint")) submitted, "count");
    ("core.submits_per_write", ratio submitted (fi write_requests), "count");
  ]

(* Per message type: deliveries per transaction and mean self ns / minor
   words per delivery; plus the handler totals per transaction. *)
let core_metrics buckets ~txns =
  let per =
    List.concat_map
      (fun (name, (count, ns, words)) ->
        let base = "core." ^ name in
        [
          (base ^ ".per_txn", ratio (fi count) txns, "count");
          (base ^ ".ns", ratio ns (fi count), "ns");
          (base ^ ".words", ratio words (fi count), "words");
        ])
      buckets
  in
  let ns = List.fold_left (fun acc (_, (_, n, _)) -> acc +. n) 0.0 buckets in
  let words = List.fold_left (fun acc (_, (_, _, w)) -> acc +. w) 0.0 buckets in
  per
  @ [
      ("core.handler.ns_per_txn", ratio ns txns, "ns");
      ("core.handler.words_per_txn", ratio words txns, "words");
    ]

(* The message types that together carry at least 95% of handler self
   time, heaviest first (a note, so the selection can be re-derived). *)
let heavy_share buckets =
  let total = List.fold_left (fun acc (_, (_, n, _)) -> acc +. n) 0.0 buckets in
  let sorted = List.sort (fun (_, (_, a, _)) (_, (_, b, _)) -> Float.compare b a) buckets in
  let rec take acc cum = function
    | [] -> List.rev acc
    | (name, (_, n, _)) :: rest ->
      if cum >= 0.95 *. total then List.rev acc
      else take (Printf.sprintf "%s %.1f%%" name (100.0 *. ratio n total) :: acc) (cum +. n) rest
  in
  "handler time, >= 95% covered by: " ^ String.concat ", " (take [] 0.0 sorted)

(* ---------------- wire ---------------- *)

let wire_notes kind (p : Wire_wl.trial) =
  let st = p.Wire_wl.p_state in
  let reqs = Fvec.length st.Wire_wl.reads + Fvec.length st.Wire_wl.writes in
  let rs = Stat.summarize (Fvec.sorted st.Wire_wl.reads) in
  let ws = Stat.summarize (Fvec.sorted st.Wire_wl.writes) in
  let windows =
    let n = int_of_float p.Wire_wl.p_wall_s in
    List.init (max 0 n) (fun w -> fi st.Wire_wl.window_counts.(w))
  in
  [
    Printf.sprintf "wire.req_s: %.2f 1/s (%d requests in %.3f s; injected node-to-node delay: none, latency is processor time)"
      (ratio (fi reqs) p.Wire_wl.p_wall_s) reqs p.Wire_wl.p_wall_s;
    Stat.describe "wire.read_ms" "ms" rs;
    Stat.describe "wire.write_ms" "ms" ws;
    Printf.sprintf "wire.retries: %d (EXISTS / ABORTED answers retried by the client)" st.Wire_wl.retries;
  ]
  @ (match kind with
    | Wire_wl.Read ->
      let late = Stat.summarize (Fvec.sorted st.Wire_wl.late) in
      [ Stat.describe "gen.late_ms" "ms" late ]
    | Wire_wl.Write -> [ series "wire.ops_per_s" windows ])

(* Requests per second and the median latency of all requests of one
   trial. *)
let wire_figures (p : Wire_wl.trial) =
  let st = p.Wire_wl.p_state in
  let all = merge_sorted [ st.Wire_wl.reads; st.Wire_wl.writes ] in
  (ratio (fi (Array.length all)) p.Wire_wl.p_wall_s, Stat.at all 50.0)

(* Medians over the trials of the run. *)
let wire_e2e (ps : Wire_wl.trial list) =
  let figs = List.map wire_figures ps in
  [
    ("setup_s", Stat.median (List.map (fun p -> p.Wire_wl.p_setup_s) ps), "s");
    ("heap_mb", (List.hd ps).Wire_wl.p_live_mb, "MB");
    ("ops_per_s", Stat.median (List.map fst figs), "1/s");
    ("p50_ms", Stat.median (List.map snd figs), "ms");
  ]

let phase_of_path (snap : Prof.snapshot) path =
  match List.find_opt (fun ph -> String.equal ph.Prof.ph_path path) snap.Prof.sn_phases with
  | Some ph -> (ph.Prof.ph_wall_ms, ph.Prof.ph_minor_words)
  | None -> (0.0, 0.0)

let bucket_delta ~before ~after =
  List.filter_map
    (fun (name, (c1, n1, w1)) ->
      let c0, n0, w0 = try List.assoc name before with Not_found -> (0, 0.0, 0.0) in
      if c1 - c0 > 0 then Some (name, (c1 - c0, n1 -. n0, w1 -. w0)) else None)
    after

let wire_layers kind (pu : Wire_wl.trial) (pt : Wire_wl.trial) =
  let rp = Wire_wl.replay pt.Wire_wl.p_recorded in
  let req = fi (max 1 rp.Wire_wl.r_items) in
  let b = pt.Wire_wl.p_before and a = pt.Wire_wl.p_after in
  let loop path =
    let w1, m1 = phase_of_path a.Wire_wl.s_prof path in
    let w0, m0 = phase_of_path b.Wire_wl.s_prof path in
    ((w1 -. w0) *. 1e6, m1 -. m0)
  in
  let io_ns, io_w = loop "loop.io" and drain_ns, drain_w = loop "loop.drain" in
  let timers_ns, timers_w = loop "loop.timers" and select_ns, select_w = loop "loop.select" in
  let counters_delta =
    List.map
      (fun (n, v) -> (n, v - counter b.Wire_wl.s_counters n))
      a.Wire_wl.s_counters
  in
  let st = pt.Wire_wl.p_state in
  let writes = st.Wire_wl.write_ops in
  let txns = fi (counter counters_delta "txn_submitted") in
  let buckets = bucket_delta ~before:b.Wire_wl.s_buckets ~after:a.Wire_wl.s_buckets in
  let cost (p : Wire_wl.trial) =
    let s = p.Wire_wl.p_state in
    match kind with
    | Wire_wl.Read -> Stat.at (merge_sorted [ s.Wire_wl.reads; s.Wire_wl.writes ]) 50.0
    | Wire_wl.Write ->
      ratio p.Wire_wl.p_wall_s (fi (Fvec.length s.Wire_wl.reads + Fvec.length s.Wire_wl.writes))
  in
  let late = Fvec.sorted pu.Wire_wl.p_state.Wire_wl.late in
  let metrics =
    [
      ("wire.parser.ns_per_req", rp.Wire_wl.r_parser_ns /. req, "ns");
      ("wire.parser.words_per_req", rp.Wire_wl.r_parser_words /. req, "words");
      ( "wire.handler.ns_per_req",
        Float.max 0.0 (rp.Wire_wl.r_handler_ns -. rp.Wire_wl.r_parser_ns) /. req, "ns" );
      ( "wire.handler.words_per_req",
        Float.max 0.0 (rp.Wire_wl.r_handler_words -. rp.Wire_wl.r_parser_words) /. req, "words" );
      ( "wire.bytes_per_req",
        fi (pt.Wire_wl.p_sent_bytes + pt.Wire_wl.p_recv_bytes) /. req, "bytes" );
      ("loop.io.ns_per_req", io_ns /. req, "ns");
      ("loop.drain.ns_per_req", drain_ns /. req, "ns");
      ("loop.timers.ns_per_req", timers_ns /. req, "ns");
      ("loop.words_per_req", (io_w +. drain_w +. timers_w +. select_w) /. req, "words");
      ( "loop.idle_share",
        ratio select_ns (io_ns +. drain_ns +. timers_ns +. select_ns), "ratio" );
      ( "wire.net.msgs_per_write",
        ratio (fi (sum_prefix counters_delta "net.sent.node")) (fi writes), "count" );
      ( "wire.net.bytes_per_write",
        ratio (fi (sum_prefix counters_delta "net.sent_bytes.node")) (fi writes), "bytes" );
      ( "gen.late_p99_ms",
        (match kind with Wire_wl.Read -> Stat.at late 99.0 | Wire_wl.Write -> 0.0), "ms" );
      ("trace.overhead_pct", 100.0 *. (ratio (cost pt) (cost pu) -. 1.0), "%");
    ]
    @ protocol_ratios counters_delta ~write_requests:writes
    @ core_metrics buckets ~txns
  in
  let notes =
    [
      Printf.sprintf "traced trial: %d protocol requests replayed, %d MDCC transactions" rp.Wire_wl.r_items
        (int_of_float txns);
      heavy_share buckets;
    ]
  in
  (metrics, notes)

let run_wire kind ~seed ~seconds ~trace =
  let rng = Rng.create seed in
  let outcome (ps : Wire_wl.trial list) =
    let failed = List.fold_left (fun acc p -> acc + p.Wire_wl.p_state.Wire_wl.failed) 0 ps in
    let attempted = List.fold_left (fun acc p -> acc + p.Wire_wl.p_state.Wire_wl.attempted) 0 ps in
    let problems = List.concat_map (fun p -> List.rev p.Wire_wl.p_state.Wire_wl.problems) ps in
    (failed, attempted, List.map (fun s -> "CHECK FAILED: " ^ s) problems)
  in
  if not trace then begin
    let input = Wire_wl.input_of kind rng in
    let trials = repeats ~seconds ~nominal_s:Wire_wl.trial_seconds ~at_least:2 in
    let ps = List.init trials (fun _ -> Wire_wl.trial kind input ~traced:false) in
    let failed, attempted, problems = outcome ps in
    { correct = failed = 0; attempted; failed; metrics = wire_e2e ps;
      notes = List.concat_map (wire_notes kind) ps @ problems }
  end
  else begin
    let input = Wire_wl.input_of kind rng in
    let pu = Wire_wl.trial kind input ~traced:false in
    let pt = Wire_wl.trial kind input ~traced:true in
    let metrics, notes = wire_layers kind pu pt in
    let failed, attempted, problems = outcome [ pu; pt ] in
    { correct = failed = 0; attempted; failed; metrics;
      notes = wire_notes kind pu @ wire_notes kind pt @ notes @ problems }
  end

(* ---------------- sim-tpcw ---------------- *)

let sim_untraced ~seed ~rows ~episodes ~live_mb =
  List.init episodes (fun i ->
      let t0 = Stat.now_s () in
      let h, obs = Sim_wl.setup ~seed ~rows in
      let setup = Stat.now_s () -. t0 in
      let e = Sim_wl.run_episode (Sim_wl.spec ~seed) h obs in
      (* The first episode's deployment, still live, is the heap figure. *)
      if i = 0 then live_mb := Stat.live_heap_mb ();
      ignore (Sys.opaque_identity h);
      (setup, e))

let sim_notes (e : Sim_wl.episode) =
  let tl = e.Sim_wl.e_tally in
  [
    Printf.sprintf "sim.txn_per_s: %.2f 1/s (%d committed, %d aborted of %d submitted, %.3f s wall)"
      (ratio (fi tl.Sim_wl.committed) e.Sim_wl.e_wall_s) tl.Sim_wl.committed tl.Sim_wl.aborted
      tl.Sim_wl.submitted e.Sim_wl.e_wall_s;
    Stat.describe "sim.commit_vms (virtual ms, injected RTT: five EC2 regions, lognormal jitter sigma 0.05)"
      "vms" (Stat.summarize e.Sim_wl.e_latencies);
    series "sim.txn_per_s" (Sim_wl.window_rates e);
  ]

let run_sim ~seed ~seconds ~trace =
  let rows = Sim_wl.rows ~seed in
  let budget = if trace then seconds /. 2.0 else seconds in
  let episodes = repeats ~seconds:budget ~nominal_s:Sim_wl.episode_s ~at_least:3 in
  let live_mb = ref 0.0 in
  let eps = sim_untraced ~seed ~rows ~episodes ~live_mb in
  let first = snd (List.hd eps) in
  (* Virtual time is deterministic per seed: every episode must agree. *)
  let deterministic =
    List.for_all
      (fun (_, e) ->
        e.Sim_wl.e_latencies = first.Sim_wl.e_latencies
        && e.Sim_wl.e_tally.Sim_wl.committed = first.Sim_wl.e_tally.Sim_wl.committed)
      eps
  in
  let problems =
    (if deterministic then [] else [ "episodes of one seed disagree in virtual time" ])
    @ List.concat_map (fun (_, e) -> e.Sim_wl.e_problems) eps
  in
  let tl = first.Sim_wl.e_tally in
  let attempted = tl.Sim_wl.submitted in
  let failed = tl.Sim_wl.submitted - tl.Sim_wl.committed - tl.Sim_wl.aborted in
  let rates = List.map (fun (_, e) -> ratio (fi e.Sim_wl.e_tally.Sim_wl.committed) e.Sim_wl.e_wall_s) eps in
  let notes =
    sim_notes first
    @ [ Printf.sprintf "episodes: %d, committed txn per wall-second: median %.2f"
          (List.length eps) (Stat.median rates) ]
  in
  if not trace then
    let lat = first.Sim_wl.e_latencies in
    {
      correct = problems = [];
      attempted;
      failed;
      metrics =
        [
          ("setup_s", Stat.median (List.map fst eps), "s");
          ("heap_mb", !live_mb, "MB");
          ("ops_per_s", Stat.median rates, "1/s");
          ("p50_ms", Stat.at lat 50.0, "ms");
        ];
      notes = notes @ List.map (fun s -> "CHECK FAILED: " ^ s) problems;
    }
  else begin
    let obs = Obs.create () in
    let (tracer, tr, e), prof =
      Prof.with_task (fun () ->
          let tracer, tr = Sim_wl.traced_setup ~seed ~rows ~obs in
          let e = Sim_wl.run_episode (Sim_wl.spec ~seed) tr.Sim_wl.t_harness obs in
          (tracer, tr, e))
    in
    (* The traced assembly must be the same program: identical decisions
       and identical message counts for the same seed. *)
    let u_sent, _, u_recv = Sim_wl.net_totals first.Sim_wl.e_obs in
    let stats = Mdcc_sim.Network.stats tr.Sim_wl.t_net in
    let ttl = e.Sim_wl.e_tally in
    let same =
      ttl.Sim_wl.committed = tl.Sim_wl.committed
      && ttl.Sim_wl.aborted = tl.Sim_wl.aborted
      && stats.Mdcc_sim.Network.sent = u_sent
      && stats.Mdcc_sim.Network.delivered = u_recv
    in
    let equivalence =
      Printf.sprintf
        "traced assembly: committed %d/%d aborted %d/%d sent %d/%d delivered %d/%d (traced/untraced)"
        ttl.Sim_wl.committed tl.Sim_wl.committed ttl.Sim_wl.aborted tl.Sim_wl.aborted
        stats.Mdcc_sim.Network.sent u_sent stats.Mdcc_sim.Network.delivered u_recv
    in
    let history = tr.Sim_wl.t_history in
    let events = Mdcc_core.History.length history in
    let violations = ref [] in
    let check () =
      violations :=
        Mdcc_chaos.Checker.check
          ~bounds:(Mdcc_storage.Schema.bounds_of Mdcc_workload.Tpcw.schema)
          ~partition_of:Sim_wl.partition_of history
    in
    let w0 = Gc.minor_words () in
    let t0 = Stat.now_s () in
    check ();
    let checker_ns = (Stat.now_s () -. t0) *. 1e9 in
    let checker_words = Gc.minor_words () -. w0 in
    let txns = fi ttl.Sim_wl.submitted in
    let pops = fi (counter prof.Prof.sn_counters "event_queue.pop") in
    let engine_ms, engine_words = phase_of_path prof "engine.run" in
    let engine_ns = (engine_ms *. 1e6) -. tracer.Tracer.covered_ns in
    let engine_words = engine_words -. tracer.Tracer.covered_words in
    let counters = Registry.counter_bindings (Obs.registry obs) in
    let buckets =
      List.map (fun (n, a) -> (n, (a.Tracer.count, a.Tracer.ns, a.Tracer.words))) (Tracer.buckets tracer)
    in
    let median_wall = Stat.median (List.map (fun (_, e) -> e.Sim_wl.e_wall_s) eps) in
    let metrics =
      [
        ("sim.events_per_txn", ratio pops txns, "count");
        ("sim.engine.ns_per_event", ratio engine_ns pops, "ns");
        ("sim.engine.words_per_event", ratio engine_words pops, "words");
        ("sim.net.msgs_per_txn", ratio (fi stats.Mdcc_sim.Network.sent) txns, "count");
        ("sim.net.bytes_per_txn", ratio (fi (sum_prefix counters "net.sent_bytes.node")) txns, "bytes");
        ("chaos.checker.ns_per_event", ratio checker_ns (fi events), "ns");
        ("chaos.checker.words_per_event", ratio checker_words (fi events), "words");
        ("trace.overhead_pct", 100.0 *. (ratio e.Sim_wl.e_wall_s median_wall -. 1.0), "%");
      ]
      @ protocol_ratios counters ~write_requests:ttl.Sim_wl.submitted
      @ core_metrics buckets ~txns
    in
    let problems =
      problems
      @ (if same then [] else [ "traced assembly diverged from the untraced run" ])
      @ List.map Mdcc_chaos.Checker.violation_to_string !violations
      @ e.Sim_wl.e_problems
    in
    {
      correct = problems = [];
      attempted;
      failed;
      metrics;
      notes =
        notes
        @ [ equivalence; Printf.sprintf "checker: %d history events, %d violations" events
              (List.length !violations); heavy_share buckets ]
        @ List.map (fun s -> "CHECK FAILED: " ^ s) problems;
    }
  end

(* ---------------- chaos-sweep ---------------- *)

module Sweep = Mdcc_chaos.Sweep

let run_chaos ~seed ~seconds ~trace =
  let specs = Chaos_wl.specs ~seed in
  let runs = List.length specs in
  let failures = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let account reports =
    attempted := !attempted + List.length reports;
    failed := !failed + Chaos_wl.failed_runs reports;
    if !failures = [] then failures := Chaos_wl.describe_failures reports
  in
  (* Reports of the first batch are kept for the latency and merge
     figures; later batches are only accounted, so memory does not grow
     with the number of batches a fast build fits in. *)
  let first = ref [] and live_mb = ref 0.0 in
  let keep reports =
    account reports;
    if !first = [] then begin
      first := reports;
      live_mb := Stat.live_heap_mb ()
    end
  in
  let batches ~budget f =
    List.init (repeats ~seconds:budget ~nominal_s:Chaos_wl.batch_s ~at_least:3) (fun _ ->
        let t0 = Stat.now_s () in
        let x = f () in
        (Stat.now_s () -. t0, x))
  in
  if not trace then begin
    let warm = Chaos_wl.warmup_specs ~seed in
    let setups =
      List.init 5 (fun _ ->
          let t0 = Stat.now_s () in
          account (Sweep.run ~jobs:Chaos_wl.jobs warm);
          Stat.now_s () -. t0)
    in
    let bs = batches ~budget:seconds (fun () -> keep (Sweep.run ~jobs:Chaos_wl.jobs specs)) in
    let lat = Chaos_wl.commit_latencies !first in
    let rates = List.map (fun (wall, _) -> fi runs /. wall) bs in
    {
      correct = !failed = 0;
      attempted = !attempted;
      failed = !failed;
      metrics =
        [
          ("setup_s", Stat.median setups, "s");
          ("heap_mb", !live_mb, "MB");
          ("ops_per_s", Stat.median rates, "1/s");
          ("p50_ms", Stat.at lat 50.0, "ms");
        ];
      notes =
        [
          Printf.sprintf
            "chaos.runs_per_s: median %.2f 1/s (%d scenarios x %d seeds = %d runs per batch, %d batches, jobs %d)"
            (Stat.median rates) (List.length Mdcc_chaos.Nemesis.matrix)
            Chaos_wl.seeds_per_scenario runs (List.length bs) Chaos_wl.jobs;
          Stat.describe "chaos.commit_vms (virtual ms under faults)" "vms" (Stat.summarize lat);
        ]
        @ List.map (fun s -> "CHECK FAILED: " ^ s) !failures;
    }
  end
  else begin
    let half = seconds /. 2.0 in
    let plain = batches ~budget:half (fun () -> account (Sweep.run ~jobs:Chaos_wl.jobs specs)) in
    let profiled =
      batches ~budget:half (fun () ->
          let reports, prof = Sweep.run_profiled ~jobs:Chaos_wl.jobs specs in
          keep reports;
          prof)
    in
    let prof = List.fold_left (fun acc (_, p) -> Prof.merge acc p) Prof.empty_snapshot profiled in
    let n_runs = fi (runs * List.length profiled) in
    let run_ms, _ = phase_of_path prof "sweep.run_one" in
    let engine_ms, _ = phase_of_path prof "sweep.run_one/engine.run" in
    let wall_ms = 1000.0 *. List.fold_left (fun acc (w, _) -> acc +. w) 0.0 profiled in
    let reports = !first in
    let into = Obs.create () in
    let t0 = Stat.now_s () in
    List.iter (fun r -> Obs.merge ~into r.Mdcc_chaos.Runner.r_obs) reports;
    let merge_ns = (Stat.now_s () -. t0) *. 1e9 in
    let median_wall xs = Stat.median (List.map fst xs) in
    let c = counter prof.Prof.sn_counters in
    let metrics =
      [
        ("chaos.run.engine_share", ratio engine_ms run_ms, "ratio");
        ("chaos.run.other_ms_per_run", ratio (run_ms -. engine_ms) n_runs, "ms");
        ("pool.stolen_ratio", ratio (fi (c "pool.stolen")) (fi (c "pool.tasks")), "ratio");
        ("pool.busy_share", ratio run_ms (fi Chaos_wl.jobs *. wall_ms), "ratio");
        ("obs.merge.ns_per_run", ratio merge_ns (fi (List.length reports)), "ns");
        ( "trace.overhead_pct",
          100.0 *. (ratio (median_wall profiled) (median_wall plain) -. 1.0), "%" );
      ]
    in
    {
      correct = !failed = 0;
      attempted = !attempted;
      failed = !failed;
      metrics;
      notes =
        [
          Printf.sprintf "chaos: %d plain and %d profiled batches of %d runs" (List.length plain)
            (List.length profiled) runs;
        ]
        @ List.map (fun s -> "CHECK FAILED: " ^ s) !failures;
    }
  end

let run name ~seed ~seconds ~trace =
  match name with
  | "wire-read" -> run_wire Wire_wl.Read ~seed ~seconds ~trace
  | "wire-write" -> run_wire Wire_wl.Write ~seed ~seconds ~trace
  | "sim-tpcw" -> run_sim ~seed ~seconds ~trace
  | "chaos-sweep" -> run_chaos ~seed ~seconds ~trace
  | other -> invalid_arg ("unknown workload " ^ other)
