(** The chaos runner: one seeded, fully deterministic fault-injection run.

    A run builds the paper's 5-DC cluster with a {!Mdcc_core.History.t}
    recorder wired in, drives a scripted workload of concurrent transactions
    from random data centers, injects the scenario's fault schedule, then
    heals every fault, lets recovery and anti-entropy quiesce the system,
    and finally checks the recorded history ({!Checker}) plus the live final
    state (replica convergence, delta accounting, liveness).

    Everything — workload, fault schedule, network jitter, message drops —
    derives from [spec.seed], so a violating seed reproduces its violation
    exactly, including with tracing enabled. *)

open Mdcc_core

(** The stock fixture MDCC's and the baselines' chaos runs load: [item i]
    rows of [item_row stock], bounded by [stock >= 0] in [stock_schema]. *)

val item : int -> Mdcc_storage.Key.t
val item_row : int -> Mdcc_storage.Value.t
val stock_schema : Mdcc_storage.Schema.t

type workload =
  | Deltas  (** commutative decrements against [stock >= 0] (demarcation) *)
  | Rmw  (** serializable read-modify-writes with read guards *)
  | Mixed  (** both, on disjoint key sets *)

type spec = {
  seed : int;
  scenario : Nemesis.scenario;
  workload : workload;
  txns : int;  (** transactions submitted over the horizon *)
  items : int;  (** pre-loaded stock rows *)
  partitions : int;
      (** keyspace hash partitions; the run uses
          [max partitions scenario.sc_partitions], so shard scenarios get a
          multi-partition cluster even at the default *)
  stock : int;  (** initial stock per item *)
  horizon : float;  (** ms: submission + fault window; healing starts here *)
  drain : float;  (** ms after the horizon for recovery to quiesce *)
  mode : Config.mode;
  fast_quorum_override : int option;  (** plant a protocol bug (see Config) *)
  capture_trace : bool;  (** record the interleaved protocol trace *)
}

val spec :
  ?workload:workload ->
  ?txns:int ->
  ?items:int ->
  ?partitions:int ->
  ?stock:int ->
  ?horizon:float ->
  ?drain:float ->
  ?mode:Config.mode ->
  ?fast_quorum_override:int ->
  ?capture_trace:bool ->
  seed:int ->
  scenario:Nemesis.scenario ->
  unit ->
  spec
(** Defaults: [Mixed] workload, 40 txns, 4 items, 1 partition, stock 60,
    10 s horizon, 60 s drain, [Full] mode, no override, no trace. *)

val effective_partitions : spec -> int
(** [max spec.partitions spec.scenario.sc_partitions] — the partition count
    the run actually deploys. *)

type report = {
  r_seed : int;
  r_scenario : string;
  r_schedule : Nemesis.schedule;  (** the generated fault schedule *)
  r_submitted : int;
  r_committed : int;
  r_aborted : int;
  r_undecided : int;  (** submitted but never decided (liveness violation) *)
  r_events : int;  (** history length *)
  r_violations : Checker.violation list;
  r_trace : string list;  (** captured trace lines (empty unless requested) *)
  r_obs : Mdcc_obs.Obs.t;
      (** the run's private observability handle (spans enabled): protocol
          counters plus per-transaction causal span trees *)
}

val run : spec -> report

val ok : report -> bool
(** No violations. *)

val report_to_string : ?verbose:bool -> report -> string
(** One line per run; [verbose] adds the fault schedule, violations, and the
    run's metrics snapshot and span trees (so a violating seed's report is a
    complete diagnosis artifact). *)

val report_to_json : report -> string
(** Self-contained JSON object (seed, scenario, schedule, counters,
    violations, trace, metrics snapshot, span trees). *)
