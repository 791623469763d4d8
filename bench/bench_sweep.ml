(* Wall-clock benchmark of the parallel chaos sweep.

     dune exec bench/bench_sweep.exe -- --seeds 50 --jobs 4
     dune exec bench/bench_sweep.exe -- --out BENCH_sweep.json
     dune exec bench/bench_sweep.exe -- --check BENCH_sweep.json --tolerance 0.2

   Runs the full scenario-matrix sweep twice — sequentially (--jobs 1) and
   on a worker pool (--jobs N) — on identical spec lists, then:

   - verifies the two runs' report JSON and obs documents are byte-identical
     (the determinism contract; exit 2 on any divergence),
   - reports runs/sec and events/sec for both modes plus the speedup,
   - optionally writes the measurement to a JSON file (--out),
   - optionally compares against a checked-in baseline (--check), failing
     (exit 3) when the speedup regresses by more than --tolerance, or when
     --min-speedup is not reached.

   The regression guard compares *speedup* rather than absolute throughput
   by default: speedup is a ratio of two runs on the same machine, so the
   checked-in baseline transfers across machine classes.  Absolute
   throughput comparison is opt-in via --absolute. *)

module Sweep = Mdcc_chaos.Sweep
module Nemesis = Mdcc_chaos.Nemesis
module Runner = Mdcc_chaos.Runner
module Json = Mdcc_obs.Json
module Prof = Mdcc_obs.Prof

type measurement = { wall_s : float; runs_per_s : float; events_per_s : float }

let measure ~jobs specs =
  let t0 = Unix.gettimeofday () in
  let reports = Sweep.run ~jobs specs in
  let wall_s = Unix.gettimeofday () -. t0 in
  let events = List.fold_left (fun acc r -> acc + r.Runner.r_events) 0 reports in
  let n = List.length reports in
  ( reports,
    {
      wall_s;
      runs_per_s = Float.of_int n /. wall_s;
      events_per_s = Float.of_int events /. wall_s;
    } )

(* One canonical string for a whole sweep: every per-run report plus the
   full obs export.  Byte equality of this string is the contract. *)
let render reports =
  String.concat "\n" (List.map Runner.report_to_json reports)
  ^ "\n"
  ^ Json.to_string (Sweep.obs_doc reports)

let measurement_json m =
  Json.Obj
    [
      ("wall_s", Json.Float m.wall_s);
      ("runs_per_s", Json.Float m.runs_per_s);
      ("events_per_s", Json.Float m.events_per_s);
    ]

(* [cores] is recorded so a checker can tell whether the speedup number
   means anything: a parallel leg measured with fewer cores than domains
   is time-slicing, and its "speedup" says nothing about the code. *)
let doc ~seeds ~scenarios ~runs ~jobs ~cores ~seq ~par ~speedup =
  Json.Obj
    [
      ("schema", Json.Str "mdcc.bench_sweep.v1");
      ( "config",
        Json.Obj
          [
            ("seeds", Json.Int seeds);
            ("scenarios", Json.Int scenarios);
            ("runs", Json.Int runs);
            ("jobs", Json.Int jobs);
            ("cores", Json.Int cores);
          ] );
      ("sequential", measurement_json seq);
      ("parallel", measurement_json par);
      ("speedup", Json.Float speedup);
    ]

(* --profile: run each leg once more under the per-domain profiler and
   write the attribution artifact.  The profiled legs are separate runs —
   the measured legs above stay un-instrumented, and the profile rides
   its own file (wall-clock numbers are nondeterministic, so they must
   never share a channel with byte-pinned outputs). *)
let profile_side ~jobs specs =
  let t0 = Unix.gettimeofday () in
  let _reports, snapshot = Sweep.run_profiled ~jobs specs in
  let wall_s = Unix.gettimeofday () -. t0 in
  (wall_s, snapshot)

let profile_side_json (wall_s, snapshot) =
  let attributed_ms = Prof.attributed_ms snapshot in
  Json.Obj
    [
      ("wall_s", Json.Float wall_s);
      ("attributed_ms", Json.Float attributed_ms);
      (* For the sequential leg this is the share of the leg's wall time
         the named phases explain (the >= 0.95 acceptance bar); for a
         parallel leg phase time sums across domains, so the "fraction"
         is effectively worker-domain utilization and may exceed 1. *)
      ("attributed_fraction", Json.Float (attributed_ms /. (wall_s *. 1000.0)));
      ("profile", Prof.snapshot_to_json snapshot);
    ]

let profile_doc ~seeds ~scenarios ~runs ~jobs ~cores ~seq_side ~par_side =
  Json.Obj
    [
      ("schema", Json.Str "mdcc.bench_profile.v1");
      ( "config",
        Json.Obj
          [
            ("seeds", Json.Int seeds);
            ("scenarios", Json.Int scenarios);
            ("runs", Json.Int runs);
            ("jobs", Json.Int jobs);
            ("cores", Json.Int cores);
          ] );
      ("sequential", profile_side_json seq_side);
      ("parallel", profile_side_json par_side);
    ]

let get_float path j =
  let rec go j = function
    | [] -> (match j with Json.Float f -> Some f | Json.Int i -> Some (Float.of_int i) | _ -> None)
    | name :: rest -> Option.bind (Json.member name j) (fun j -> go j rest)
  in
  go j path

(* Speedup checks are gated on the measurement actually meaning something:
   [jobs] domains on fewer than [jobs] cores just time-slice one core, and
   the resulting ratio measures the scheduler, not this code.  The gate is
   applied to each side independently — the current measurement (skip the
   floor and the regression check, loudly) and the baseline (a baseline
   recorded on a starved machine has a meaningless speedup; skip only the
   relative comparison).  Baselines predating the [cores] field are
   trusted, i.e. assumed recorded with enough cores. *)
let check_baseline ~path ~tolerance ~absolute ~speedup ~speedup_meaningful ~par =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  match Json.parse contents with
  | Error msg ->
    Printf.eprintf "bench-sweep: cannot parse baseline %s: %s\n" path msg;
    exit 3
  | Ok baseline ->
    let fail what base now =
      Printf.eprintf
        "bench-sweep: %s regressed beyond tolerance %.0f%%: baseline %.3f, now %.3f\n" what
        (tolerance *. 100.0) base now;
      exit 3
    in
    let baseline_meaningful =
      match (get_float [ "config"; "cores" ] baseline, get_float [ "config"; "jobs" ] baseline)
      with
      | Some cores, Some jobs -> cores >= jobs
      | _ -> true
    in
    (if not speedup_meaningful then
       Printf.printf
         "check: SKIPPING speedup regression check (this machine has fewer cores than \
          --jobs; the measured ratio is time-slicing, not parallelism)\n"
     else if not baseline_meaningful then
       Printf.printf
         "check: SKIPPING speedup regression check (baseline %s was recorded with fewer \
          cores than jobs; its speedup is not comparable)\n" path
     else
       match get_float [ "speedup" ] baseline with
       | Some base when base > 0.0 ->
         if speedup < base *. (1.0 -. tolerance) then fail "speedup" base speedup
         else
           Printf.printf "check: speedup %.2fx vs baseline %.2fx (tolerance %.0f%%): ok\n"
             speedup base (tolerance *. 100.0)
       | Some _ | None -> Printf.eprintf "bench-sweep: baseline %s has no speedup field\n" path);
    if absolute then
      match get_float [ "parallel"; "runs_per_s" ] baseline with
      | Some base when base > 0.0 ->
        if par.runs_per_s < base *. (1.0 -. tolerance) then
          fail "parallel runs/sec" base par.runs_per_s
        else
          Printf.printf "check: %.1f runs/s vs baseline %.1f runs/s: ok\n" par.runs_per_s base
      | Some _ | None ->
        Printf.eprintf "bench-sweep: baseline %s has no parallel.runs_per_s field\n" path

let bench ~seeds ~jobs ~out ~check ~tolerance ~min_speedup ~absolute ~profile =
  let scenarios = Nemesis.matrix in
  let specs = Sweep.specs ~seeds ~scenarios () in
  let runs = List.length specs in
  let cores = Domain.recommended_domain_count () in
  let speedup_meaningful = cores >= jobs in
  Printf.printf "bench-sweep: %d runs (%d seeds x %d scenarios), %d cores detected\n%!" runs
    seeds (List.length scenarios) cores;
  if not speedup_meaningful then
    Printf.printf
      "  WARNING: %d cores < %d jobs — the parallel leg will time-slice; speedup \
       assertions are skipped\n%!" cores jobs;
  let seq_reports, seq = measure ~jobs:1 specs in
  Printf.printf "  sequential: %6.2f s  %7.1f runs/s  %9.0f events/s\n%!" seq.wall_s
    seq.runs_per_s seq.events_per_s;
  let par_reports, par = measure ~jobs specs in
  Printf.printf "  jobs=%-4d   %6.2f s  %7.1f runs/s  %9.0f events/s\n%!" jobs par.wall_s
    par.runs_per_s par.events_per_s;
  if not (String.equal (render seq_reports) (render par_reports)) then begin
    Printf.eprintf
      "bench-sweep: FATAL: parallel sweep output differs from sequential (determinism \
       contract broken)\n";
    exit 2
  end;
  Printf.printf "  output: byte-identical across modes\n";
  let speedup = seq.wall_s /. par.wall_s in
  Printf.printf "  speedup: %.2fx\n" speedup;
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc
        (Json.to_string
           (doc ~seeds ~scenarios:(List.length scenarios) ~runs ~jobs ~cores ~seq ~par
              ~speedup));
      output_char oc '\n';
      close_out oc;
      Printf.printf "  written: %s\n" path)
    out;
  Option.iter
    (fun path ->
      Printf.printf "  profiling sequential leg...\n%!";
      let seq_side = profile_side ~jobs:1 specs in
      Printf.printf "  profiling jobs=%d leg...\n%!" jobs;
      let par_side = profile_side ~jobs specs in
      let oc = open_out path in
      output_string oc
        (Json.to_string
           (profile_doc ~seeds ~scenarios:(List.length scenarios) ~runs ~jobs ~cores
              ~seq_side ~par_side));
      output_char oc '\n';
      close_out oc;
      let frac (wall_s, snap) = Prof.attributed_ms snap /. (wall_s *. 1000.0) in
      Printf.printf "  profile: attributed %.0f%% (seq) / %.0f%% (jobs=%d) of wall; %s\n"
        (100.0 *. frac seq_side) (100.0 *. frac par_side) jobs path)
    profile;
  Option.iter
    (fun path -> check_baseline ~path ~tolerance ~absolute ~speedup ~speedup_meaningful ~par)
    check;
  Option.iter
    (fun floor ->
      if not speedup_meaningful then
        Printf.printf
          "  SKIPPING --min-speedup %.2f floor (%d cores < %d jobs: the ratio measures \
           time-slicing, not parallelism)\n" floor cores jobs
      else if speedup < floor then begin
        Printf.eprintf "bench-sweep: speedup %.2fx below required %.2fx\n" speedup floor;
        exit 3
      end
      else Printf.printf "  min-speedup: %.2fx >= %.2fx: ok\n" speedup floor)
    min_speedup

open Cmdliner

let seeds_arg = Arg.(value & opt int 50 & info [ "seeds" ] ~docv:"N" ~doc:"Seeds per scenario.")

let jobs_arg =
  Arg.(
    value
    & opt int (Mdcc_util.Pool.default_jobs ())
    & info [ "jobs" ] ~docv:"N" ~doc:"Worker domains for the parallel leg.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE" ~doc:"Write the measurement as JSON (schema mdcc.bench_sweep.v1).")

let check_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "check" ] ~docv:"BASELINE"
        ~doc:"Compare against a baseline measurement; exit 3 on regression.")

let tolerance_arg =
  Arg.(
    value & opt float 0.2
    & info [ "tolerance" ] ~docv:"FRAC" ~doc:"Allowed relative regression (default 0.2 = 20%).")

let min_speedup_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "min-speedup" ] ~docv:"X" ~doc:"Require at least this speedup over --jobs 1.")

let absolute_flag =
  Arg.(
    value & flag
    & info [ "absolute" ]
        ~doc:
          "Also compare absolute runs/sec against the baseline (off by default: wall-clock \
           throughput does not transfer across machine classes; speedup does).")

let profile_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:
          "Re-run both legs under the hot-path profiler and write the attribution artifact \
           (schema mdcc.bench_profile.v1: per-phase wall/alloc breakdown, sequential vs \
           --jobs N side by side) to $(docv).  The measured legs above stay un-instrumented.")

let () =
  let doc = "wall-clock benchmark and regression guard for the parallel chaos sweep" in
  let run seeds jobs out check tolerance min_speedup absolute profile =
    bench ~seeds ~jobs ~out ~check ~tolerance ~min_speedup ~absolute ~profile
  in
  let cmd =
    Cmd.v
      (Cmd.info "bench-sweep" ~doc)
      Term.(
        const run $ seeds_arg $ jobs_arg $ out_arg $ check_arg $ tolerance_arg
        $ min_speedup_arg $ absolute_flag $ profile_arg)
  in
  exit (Cmd.eval cmd)
