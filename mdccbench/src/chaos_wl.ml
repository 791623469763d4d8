(* chaos-sweep: every nemesis scenario x a few seeds through [Sweep.run].

   The only workload that exercises fault injection, recovery,
   anti-entropy, history recording, the checker and the domain pool.  Runs
   are small (40 transactions each), so per-run set-up and checking weigh
   as much as the simulation itself.  A batch is the whole matrix at this
   run's seeds; the run repeats the same batch until its time is up, so
   every batch does identical work. *)

module Runner = Mdcc_chaos.Runner
module Sweep = Mdcc_chaos.Sweep
module Nemesis = Mdcc_chaos.Nemesis
module Obs = Mdcc_obs.Obs
module Span = Mdcc_obs.Span

let jobs = 2
let seeds_per_scenario = 16
let batch_s = 1.0  (* nominal wall time of one batch, sizes the run *)

let specs ~seed =
  List.concat_map
    (fun scenario ->
      List.init seeds_per_scenario (fun i ->
          Runner.spec ~seed:((seed * 1000) + i + 1) ~scenario ()))
    Nemesis.matrix

(* Two runs per scenario at seeds the measured batch does not use: the
   warm-up that counts as this workload's set-up. *)
let warmup_specs ~seed =
  List.concat_map
    (fun scenario ->
      List.init 2 (fun i -> Runner.spec ~seed:((seed * 1000) + 500 + i) ~scenario ()))
    Nemesis.matrix

(* A run fails its output check on any checker violation or any
   transaction left undecided after the drain. *)
let failed_runs reports =
  List.length
    (List.filter (fun r -> r.Runner.r_violations <> [] || r.Runner.r_undecided > 0) reports)

let describe_failures reports =
  List.filter_map
    (fun r ->
      if r.Runner.r_violations <> [] || r.Runner.r_undecided > 0 then
        Some (Runner.report_to_string r)
      else None)
    reports

(* Virtual-time commit latency of every committed transaction, from the
   per-run span trees: the first "decide" (committed) minus "submit". *)
let commit_latencies reports =
  let v = Stat.Fvec.create () in
  List.iter
    (fun r ->
      match Obs.spans r.Runner.r_obs with
      | None -> ()
      | Some sp ->
        List.iter
          (fun txid ->
            let evs = Span.events sp ~txid in
            let find name =
              List.find_opt (fun e -> String.equal e.Span.ev_name name) evs
            in
            match (find "submit", find "decide") with
            | Some s, Some d when String.equal d.Span.ev_detail "committed" ->
              Stat.Fvec.push v (d.Span.ev_at -. s.Span.ev_at)
            | _ -> ())
          (Span.txids sp))
    reports;
  Stat.Fvec.sorted v
