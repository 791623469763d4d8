open Mdcc_storage
module Engine = Mdcc_sim.Engine
module Net = Mdcc_sim.Network
module Topology = Mdcc_sim.Topology
module Messages = Mdcc_core.Messages

type read_state = { r_cb : (Value.t * int) option -> unit }

type t = {
  engine : Engine.t;
  net : Net.t;
  topo : Topology.t;
  schema : Schema.t;
  dcs : int;
  partitions : int;
  app_per_dc : int;
  stores : Store.t array;
  reads : (int, read_state) Hashtbl.t;
  mutable next_rid : int;
  next_app : int array;
}

let create ~engine ?topology ?(partitions = 1) ?(app_servers_per_dc = 1) ?(jitter_sigma = 0.05)
    ~schema () =
  let storage_topo =
    match topology with
    | Some topo -> topo
    | None -> Topology.ec2_five ~nodes_per_dc:partitions ()
  in
  let dcs = Topology.num_dcs storage_topo in
  let topo = Topology.add_nodes storage_topo ~per_dc:app_servers_per_dc in
  let net = Net.create engine topo ~jitter_sigma () in
  {
    engine;
    net;
    topo;
    schema;
    dcs;
    partitions;
    app_per_dc = app_servers_per_dc;
    stores = Array.init (dcs * partitions) (fun _ -> Store.create schema);
    reads = Hashtbl.create 64;
    next_rid = 0;
    next_app = Array.make dcs 0;
  }

let engine t = t.engine

let network t = t.net

let num_dcs t = t.dcs

let schema t = t.schema

let store_of t node = t.stores.(node)

let storage_node_ids t = List.init (Array.length t.stores) Fun.id

let partition t key = Key.hash key mod t.partitions

let replicas t key = Mdcc_core.Cluster.replicas_fn ~dcs:t.dcs ~partitions:t.partitions key

let app_base t = t.dcs * t.partitions

let app_node t ~dc =
  let rank = t.next_app.(dc) mod t.app_per_dc in
  t.next_app.(dc) <- t.next_app.(dc) + 1;
  app_base t + (dc * t.app_per_dc) + rank

let send t ~src ~dst payload = Net.send t.net ~src ~dst payload

let register_storage t node handler =
  Net.register t.net node (fun ~src payload ->
      match payload with
      | Messages.Read_request { rid; key } ->
        let row = Store.ensure t.stores.(node) key in
        send t ~src:node ~dst:src
          (Messages.Read_reply
             { rid; key; value = row.Store.value; version = row.Store.version; exists = row.Store.exists })
      | _ -> handler ~src payload)

let register_app t node handler =
  Net.register t.net node (fun ~src payload ->
      match payload with
      | Messages.Read_reply { rid; value; version; exists; _ } -> (
        match Hashtbl.find_opt t.reads rid with
        | Some rs ->
          Hashtbl.remove t.reads rid;
          rs.r_cb (if exists then Some (value, version) else None)
        | None -> ())
      | _ -> handler ~src payload)

let register_all_apps t handler =
  for dc = 0 to t.dcs - 1 do
    for rank = 0 to t.app_per_dc - 1 do
      let node = app_base t + (dc * t.app_per_dc) + rank in
      register_app t node (fun ~src payload -> handler ~node ~src payload)
    done
  done

let read_local t ~dc key cb =
  let rid = t.next_rid in
  t.next_rid <- t.next_rid + 1;
  Hashtbl.replace t.reads rid { r_cb = cb };
  let local = (dc * t.partitions) + partition t key in
  let app = app_base t + (dc * t.app_per_dc) in
  send t ~src:app ~dst:local (Messages.Read_request { rid; key })

let load t rows =
  List.iter
    (fun (key, value) ->
      List.iter
        (fun node ->
          let row = Store.ensure t.stores.(node) key in
          row.Store.value <- value;
          row.Store.version <- 1;
          row.Store.exists <- true)
        (replicas t key))
    rows

let peek t ~dc key =
  let node = (dc * t.partitions) + partition t key in
  Store.read t.stores.(node) key

let fail_dc t dc = Net.fail_dc t.net dc

let recover_dc t dc = Net.recover_dc t.net dc
