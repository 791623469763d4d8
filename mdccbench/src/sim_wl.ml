(* sim-tpcw: the paper's TPC-W write mix on the discrete-event simulator.

   The full MDCC protocol with commutative stock deltas under [stock >= 0],
   8,000 items hash-partitioned four ways, and 100 closed-loop clients
   spread over the five EC2 regions (lognormal RTT jitter, sigma 0.05).
   Each episode builds a fresh deployment and replays the same seeded
   client population, so virtual-time results (commit latency, commit and
   abort counts) are identical from one episode to the next; only the wall
   time varies. *)

open Mdcc_storage
module Engine = Mdcc_sim.Engine
module Net = Mdcc_sim.Network
module Topology = Mdcc_sim.Topology
module Rng = Mdcc_util.Rng
module Obs = Mdcc_obs.Obs
module Registry = Mdcc_obs.Registry
module Setup = Mdcc_workload.Setup
module Tpcw = Mdcc_workload.Tpcw
module Runner = Mdcc_workload.Runner
module Metrics = Mdcc_workload.Metrics
module Harness = Mdcc_protocols.Harness
module Core = Mdcc_core

let items = 8000
let partitions = 4
let clients_per_dc = 20
let warmup_ms = 2000.0
let duration_ms = 12000.0
let drain_ms = 4000.0
let window_ms = 1000.0
let episode_s = 3.5  (* nominal wall time of one episode, sizes the run *)

let params = { Tpcw.default with items; commutative = true }

let spec ~seed =
  { Runner.clients_per_dc = Array.make 5 clients_per_dc; warmup = warmup_ms;
    duration = duration_ms; drain = drain_ms; seed }

let rows ~seed = Tpcw.rows params ~rng:(Rng.create ((seed * 17) + 3))

(* The deployment's key-to-partition hash, as [Cluster.partition_of]. *)
let partition_of key = Key.hash key mod partitions

(* The untraced deployment: exactly what the figure experiments build. *)
let setup ~seed ~rows =
  let obs = Obs.create () in
  let h = Setup.make Setup.Mdcc ~seed ~schema:Tpcw.schema ~partitions ~obs ~rows () in
  (h, obs)

(* Client-side accounting around a harness: every write transaction a
   client submits, every decision, and commits per virtual-time window. *)
type tally = {
  mutable submitted : int;
  mutable committed : int;
  mutable aborted : int;
  windows : int array;  (* commits decided in each virtual window *)
}

let counting ~total_ms (h : Harness.t) =
  let tl =
    { submitted = 0; committed = 0; aborted = 0;
      windows = Array.make (int_of_float (total_ms /. window_ms) + 1) 0 }
  in
  let submit ~dc txn k =
    tl.submitted <- tl.submitted + 1;
    h.Harness.submit ~dc txn (fun outcome ->
        (match outcome with
        | Txn.Committed ->
          tl.committed <- tl.committed + 1;
          let w = int_of_float (Engine.now h.Harness.engine /. window_ms) in
          let w = min w (Array.length tl.windows - 1) in
          tl.windows.(w) <- tl.windows.(w) + 1
        | Txn.Aborted _ -> tl.aborted <- tl.aborted + 1);
        k outcome)
  in
  ({ h with Harness.submit }, tl)

type episode = {
  e_tally : tally;
  e_wall_s : float;
  e_latencies : float array;  (* sorted post-warm-up commit latencies, virtual ms *)
  e_window_wall : float array;  (* wall seconds at each window boundary *)
  e_obs : Obs.t;
  e_problems : string list;  (* failed output checks *)
}

(* After the drain: every item's committed stock is >= 0 at every replica
   and all five data centers hold the same value and version. *)
let check_items (h : Harness.t) =
  let problems = ref [] in
  for i = items - 1 downto 0 do
    let key = Key.make ~table:"item" ~id:(string_of_int i) in
    let reads = List.init h.Harness.num_dcs (fun dc -> h.Harness.peek ~dc key) in
    match reads with
    | [] -> ()
    | first :: rest ->
      (match first with
      | None -> problems := Printf.sprintf "item %d missing at dc0" i :: !problems
      | Some (v, _) ->
        if Value.get_int v "stock" < 0 then
          problems := Printf.sprintf "item %d stock %d < 0" i (Value.get_int v "stock") :: !problems);
      let same a b =
        match (a, b) with
        | Some (v1, n1), Some (v2, n2) -> n1 = n2 && Value.equal v1 v2
        | None, None -> true
        | _ -> false
      in
      List.iteri
        (fun j r ->
          if not (same first r) then
            problems := Printf.sprintf "item %d differs between dc0 and dc%d" i (j + 1) :: !problems)
        rest
  done;
  !problems

let run_episode (spec : Runner.spec) (h : Harness.t) obs =
  let total_ms = spec.Runner.warmup +. spec.Runner.duration +. spec.Runner.drain in
  let h, tally = counting ~total_ms h in
  let n_windows = Array.length tally.windows in
  let window_wall = Array.make (n_windows + 1) 0.0 in
  let probes =
    List.init n_windows (fun w ->
        (float_of_int (w + 1) *. window_ms, fun () -> window_wall.(w + 1) <- Stat.now_s ()))
  in
  let t0 = Stat.now_s () in
  window_wall.(0) <- t0;
  let metrics = Runner.run ~events:probes h (Tpcw.generator params) spec in
  let wall = Stat.now_s () -. t0 in
  let latencies = Array.of_list (Metrics.commit_latencies metrics) in
  Array.sort Float.compare latencies;
  let undecided = tally.submitted - tally.committed - tally.aborted in
  let problems =
    (if undecided > 0 then [ Printf.sprintf "%d transactions never decided" undecided ] else [])
    @ check_items h
  in
  { e_tally = tally; e_wall_s = wall; e_latencies = latencies; e_window_wall = window_wall;
    e_obs = obs; e_problems = problems }

(* Committed transactions per wall-second in each virtual window up to
   the end of the measured window (the drain only finishes stragglers). *)
let window_rates e =
  let n = int_of_float ((warmup_ms +. duration_ms) /. window_ms) in
  List.filter_map
    (fun w ->
      let t0 = e.e_window_wall.(w) and t1 = e.e_window_wall.(w + 1) in
      if t1 > t0 then Some (float_of_int e.e_tally.windows.(w) /. (t1 -. t0)) else None)
    (List.init n Fun.id)

let net_totals obs =
  let reg = Obs.registry obs in
  List.fold_left
    (fun (msgs, bytes, recv) (name, v) ->
      if String.starts_with ~prefix:"net.sent_bytes." name then (msgs, bytes + v, recv)
      else if String.starts_with ~prefix:"net.sent." name then (msgs + v, bytes, recv)
      else if String.starts_with ~prefix:"net.recv." name then (msgs, bytes, recv + v)
      else (msgs, bytes, recv))
    (0, 0, 0) (Registry.counter_bindings reg)

(* ---------------- traced assembly ---------------- *)

(* The same deployment as [Setup.make Mdcc] / [Cluster.create], assembled
   from the public node constructors over a {!Tracer} runtime, with a
   history recorder in the context for the checker timing.  Node ids,
   registration order, RNG splits and load order mirror [Cluster.create]
   so the execution is the untraced one. *)
type traced = { t_harness : Harness.t; t_net : Net.t; t_history : Core.History.t }

let traced_setup ~seed ~rows ~obs =
  let engine = Engine.create ~seed in
  let config = Core.Config.make ~mode:Core.Config.Full ~gamma:100 ~replication:5 () in
  let storage_topo = Topology.ec2_five ~nodes_per_dc:partitions () in
  let dcs = Topology.num_dcs storage_topo in
  let topo = Topology.add_nodes storage_topo ~per_dc:1 in
  let net = Net.create engine topo ~drop_probability:0.0 ~jitter_sigma:0.05 () in
  Net.set_meter net
    {
      Net.m_size = Core.Messages.size_of;
      m_on_send =
        (fun ~src ~dst:_ ~bytes ->
          Obs.incr obs (Printf.sprintf "net.sent.node%02d" src);
          Obs.incr obs ~by:bytes (Printf.sprintf "net.sent_bytes.node%02d" src));
      m_on_deliver =
        (fun ~src:_ ~dst ~bytes ->
          Obs.incr obs (Printf.sprintf "net.recv.node%02d" dst);
          Obs.incr obs ~by:bytes (Printf.sprintf "net.recv_bytes.node%02d" dst));
    };
  let history = Core.History.create () in
  let ctx = Core.Ctx.make ~history ~obs () in
  let base = dcs * partitions in
  let tracer = Tracer.create ~role_of:(fun node -> if node < base then "storage" else "coord") in
  let runtime = Tracer.wrap tracer (Core.Runtime.of_network net) in
  let replicas key = List.init dcs (fun dc -> (dc * partitions) + partition_of key) in
  let master_dc_of key = Hashtbl.hash (Key.to_string key ^ "#master") mod dcs in
  let master_of key = (master_dc_of key * partitions) + partition_of key in
  let nodes =
    Array.init base (fun node_id ->
        Core.Storage_node.create ~runtime ~config ~node_id ~schema:Tpcw.schema ~replicas
          ~master_of ~ctx ())
  in
  let snapshot_for dc =
    {
      Core.Coordinator.snap_read =
        (fun key -> Store.read (Core.Storage_node.store nodes.((dc * partitions) + partition_of key)) key);
      snap_scan =
        (fun ~table ->
          let rows = ref [] in
          for p = partitions - 1 downto 0 do
            Store.iter
              (Core.Storage_node.store nodes.((dc * partitions) + p))
              (fun key row ->
                if row.Store.exists && String.equal key.Key.table table then
                  rows := (key, row.Store.value, row.Store.version) :: !rows)
          done;
          !rows);
    }
  in
  let coords =
    Array.init dcs (fun dc ->
        let local_nodes = List.init partitions (fun p -> (dc * partitions) + p) in
        Core.Coordinator.create ~runtime ~config ~node_id:(base + dc) ~replicas ~master_of
          ~snapshot:(snapshot_for dc) ~ctx:(Core.Ctx.with_local_nodes ctx local_nodes) ())
  in
  List.iter
    (fun (key, value) ->
      List.iter (fun node -> Core.Storage_node.load nodes.(node) [ (key, value) ]) (replicas key))
    rows;
  Array.iter Core.Storage_node.start_maintenance nodes;
  let submit_bucket = Tracer.bucket tracer "coord.Submit" in
  let read_bucket = Tracer.bucket tracer "coord.Read" in
  let peek ~dc key =
    Store.read (Core.Storage_node.store nodes.((dc * partitions) + partition_of key)) key
  in
  let harness =
    {
      Harness.name = "MDCC";
      engine;
      num_dcs = dcs;
      submit =
        (fun ~dc txn k ->
          Tracer.timed tracer submit_bucket (fun () -> Core.Coordinator.submit coords.(dc) txn k));
      read_local =
        (fun ~dc key k ->
          Tracer.timed tracer read_bucket (fun () ->
              Core.Coordinator.read ~level:`Local coords.(dc) key k));
      peek;
      load = (fun _ -> invalid_arg "traced harness: load after set-up");
      fail_dc = (fun dc -> Net.fail_dc net dc);
      recover_dc = (fun dc -> Net.recover_dc net dc);
    }
  in
  (tracer, { t_harness = harness; t_net = net; t_history = history })
