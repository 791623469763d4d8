open Mdcc_storage
module Engine = Mdcc_sim.Engine
module Net = Mdcc_sim.Network
module Topology = Mdcc_sim.Topology
module Invariant = Mdcc_util.Invariant
module Obs = Mdcc_obs.Obs

type t = {
  engine : Engine.t;
  net : Net.t;
  config : Config.t;
  topo : Topology.t;
  deployment : Deployment.t;
  layout : Deployment.layout;
  obs : Obs.t;
}

module Spec = struct
  type t = {
    topology : Topology.t option;
    partitions : int;
    app_servers_per_dc : int;
    drop_probability : float;
    master_dc_of : (Key.t -> int) option;
  }

  let make ?topology ?(partitions = 1) ?(app_servers_per_dc = 1) ?(drop_probability = 0.0)
      ?master_dc_of () =
    if partitions < 1 then
      Invariant.violate ~context:"Cluster.Spec" "partitions must be >= 1 (got %d)" partitions;
    if app_servers_per_dc < 1 then
      Invariant.violate ~context:"Cluster.Spec" "app_servers_per_dc must be >= 1 (got %d)"
        app_servers_per_dc;
    if drop_probability < 0.0 || drop_probability > 1.0 then
      Invariant.violate ~context:"Cluster.Spec" "drop_probability must be in [0,1] (got %g)"
        drop_probability;
    { topology; partitions; app_servers_per_dc; drop_probability; master_dc_of }

  let default = make ()
end

let create ~engine ~spec ?(ctx = Ctx.default ()) ~config ~schema () =
  let { Spec.topology; partitions; app_servers_per_dc; drop_probability; master_dc_of } = spec in
  let obs = ctx.Ctx.obs in
  let storage_topo =
    match topology with
    | Some topo -> topo
    | None -> Topology.ec2_five ~nodes_per_dc:partitions ()
  in
  let dcs = Topology.num_dcs storage_topo in
  if config.Config.replication <> dcs then
    Invariant.violate ~context:"Cluster.create"
      "config.replication (%d) must equal the number of data centers (%d)"
      config.Config.replication dcs;
  if Topology.num_nodes storage_topo <> dcs * partitions then
    Invariant.violate ~context:"Cluster.create"
      "topology must have exactly `partitions` (%d) nodes per DC" partitions;
  let layout =
    Deployment.layout ?master_dc_of ~dcs ~partitions ~app_per_dc:app_servers_per_dc ()
  in
  let topo = Topology.add_nodes storage_topo ~per_dc:app_servers_per_dc in
  let net = Net.create engine topo ~drop_probability () in
  (* Charged at the network edge so every protocol message, including
     Batch folding, is counted once. *)
  Net.set_meter net
    {
      Net.m_size = Messages.size_of;
      m_on_send = Deployment.meter_send obs;
      m_on_deliver = Deployment.meter_deliver obs;
    };
  let deployment =
    Deployment.create ~runtime:(Runtime.of_network net) ~layout ~config ~schema ~ctx
  in
  { engine; net; config; topo; deployment; layout; obs }

let engine t = t.engine

let network t = t.net

let topology t = t.topo

let config t = t.config

let layout t = t.layout

let num_dcs t = t.layout.dcs

let num_partitions t = t.layout.partitions

let partition_of t key = Deployment.partition_of t.layout key

let obs t = t.obs

let coordinator t ~dc ~rank =
  if dc < 0 || dc >= t.layout.dcs || rank < 0 || rank >= t.layout.app_per_dc then
    Invariant.violate ~context:"Cluster.coordinator" "dc %d / rank %d out of range" dc rank;
  Deployment.coordinator t.deployment ~dc ~rank

let coordinators t = Deployment.coordinators t.deployment

let nodes t = Deployment.nodes t.deployment

let storage_nodes t = Array.to_list (nodes t)

let replicas t key = Deployment.replicas t.layout key

let master_node t key = Deployment.master_of t.layout key

let load t rows = Deployment.load t.deployment rows

let peek t ~dc key = Deployment.peek t.deployment ~dc key

let start_maintenance t = Array.iter Storage_node.start_maintenance (nodes t)

let fail_dc t dc = Net.fail_dc t.net dc

let recover_dc t dc = Net.recover_dc t.net dc

let sync_dc t dc =
  for p = 0 to t.layout.partitions - 1 do
    Storage_node.sync_with_masters (nodes t).(Deployment.storage_node t.layout ~dc p)
  done

let fail_node t node = Net.fail_node t.net node

let restart_node t node =
  Net.recover_node t.net node;
  (* A restarting storage node immediately runs the peer-directed
     anti-entropy sweep: its committed store survived the crash (durable
     storage), but it may have missed whole instances while down. *)
  if node < Array.length (nodes t) then Storage_node.sync_with_peers (nodes t).(node)

let sync_all t = Array.iter Storage_node.sync_with_peers (nodes t)
