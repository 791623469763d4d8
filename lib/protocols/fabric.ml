open Mdcc_storage
module Engine = Mdcc_sim.Engine
module Net = Mdcc_sim.Network
module Topology = Mdcc_sim.Topology
module Deployment = Mdcc_core.Deployment
module Messages = Mdcc_core.Messages

type read_state = { r_cb : (Value.t * int) option -> unit }

type t = {
  engine : Engine.t;
  net : Net.t;
  schema : Schema.t;
  layout : Deployment.layout;
  stores : Store.t array;
  reads : (int, read_state) Hashtbl.t;
  mutable next_rid : int;
  next_app : int array;
}

let create ~engine ?(partitions = 1) ?(app_servers_per_dc = 1) ~schema () =
  let dcs = Topology.num_dcs (Topology.ec2_five ()) in
  let layout = Deployment.layout ~dcs ~partitions ~app_per_dc:app_servers_per_dc () in
  let topo =
    Topology.add_nodes (Topology.ec2_five ~nodes_per_dc:partitions ()) ~per_dc:app_servers_per_dc
  in
  {
    engine;
    net = Net.create engine topo ();
    schema;
    layout;
    stores = Array.init (dcs * partitions) (fun _ -> Store.create schema);
    reads = Hashtbl.create 64;
    next_rid = 0;
    next_app = Array.make dcs 0;
  }

let engine t = t.engine

let network t = t.net

let num_dcs t = t.layout.dcs

let schema t = t.schema

let store_of t node = t.stores.(node)

let storage_node_ids t = List.init (Array.length t.stores) Fun.id

let replicas t key = Deployment.replicas t.layout key

let app_node t ~dc =
  let rank = t.next_app.(dc) mod t.layout.app_per_dc in
  t.next_app.(dc) <- t.next_app.(dc) + 1;
  Deployment.app_node t.layout ~dc ~rank

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
  for dc = 0 to t.layout.dcs - 1 do
    for rank = 0 to t.layout.app_per_dc - 1 do
      let node = Deployment.app_node t.layout ~dc ~rank in
      register_app t node (fun ~src payload -> handler ~node ~src payload)
    done
  done

let read_local t ~dc key cb =
  let rid = t.next_rid in
  t.next_rid <- t.next_rid + 1;
  Hashtbl.replace t.reads rid { r_cb = cb };
  send t
    ~src:(Deployment.app_node t.layout ~dc ~rank:0)
    ~dst:(Deployment.local_replica t.layout ~dc key)
    (Messages.Read_request { rid; key })

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

let peek t ~dc key = Store.read t.stores.(Deployment.local_replica t.layout ~dc key) key

let fail_dc t dc = Net.fail_dc t.net dc

let recover_dc t dc = Net.recover_dc t.net dc
