open Mdcc_storage
module Invariant = Mdcc_util.Invariant
module Obs = Mdcc_obs.Obs

type layout = {
  dcs : int;
  partitions : int;
  app_per_dc : int;
  master_dc_of : Key.t -> int;
}

(* Decorrelated from the partition hash so masters spread evenly. *)
let default_master_dc ~dcs key = Hashtbl.hash (Key.to_string key ^ "#master") mod dcs

let layout ?master_dc_of ~dcs ~partitions ~app_per_dc () =
  let context = "Deployment.layout" in
  Invariant.require ~context (dcs >= 1) "dcs must be >= 1 (got %d)" dcs;
  Invariant.require ~context (partitions >= 1) "partitions must be >= 1 (got %d)" partitions;
  Invariant.require ~context (app_per_dc >= 1) "app_per_dc must be >= 1 (got %d)" app_per_dc;
  let master_dc_of = Option.value master_dc_of ~default:(default_master_dc ~dcs) in
  { dcs; partitions; app_per_dc; master_dc_of }

let partition_of l key = Key.hash key mod l.partitions

let storage_node l ~dc p = (dc * l.partitions) + p

let local_replica l ~dc key = storage_node l ~dc (partition_of l key)

let replicas l key =
  let p = partition_of l key in
  List.init l.dcs (fun dc -> storage_node l ~dc p)

let master_of l key = storage_node l ~dc:(l.master_dc_of key) (partition_of l key)

let app_node l ~dc ~rank = (l.dcs * l.partitions) + (dc * l.app_per_dc) + rank

let dc_of l id =
  let storage = l.dcs * l.partitions in
  if id < storage then id / l.partitions else (id - storage) / l.app_per_dc

type t = {
  layout : layout;
  nodes : Storage_node.t array;
  coords : Coordinator.t array;
}

let create ~runtime ~layout:l ~config ~schema ~ctx =
  let replicas = replicas l and master_of = master_of l in
  let nodes =
    Array.init (l.dcs * l.partitions) (fun node_id ->
        Storage_node.create ~runtime ~config ~node_id ~schema ~replicas ~master_of ~ctx ())
  in
  let coords =
    Array.init (l.dcs * l.app_per_dc) (fun i ->
        let dc = i / l.app_per_dc in
        let local = List.init l.partitions (fun p -> storage_node l ~dc p) in
        (* Snapshot source of the data center: direct handles on its
           partition stores, for the zero-message [`Snapshot] read level. *)
        let snapshot =
          {
            Coordinator.snap_read =
              (fun key -> Store.read (Storage_node.store nodes.(local_replica l ~dc key)) key);
            snap_scan =
              (fun ~table ->
                List.concat_map
                  (fun n -> Store.live_rows (Storage_node.store nodes.(n)) ~table)
                  local);
          }
        in
        Coordinator.create ~runtime ~config ~node_id:(app_node l ~dc ~rank:(i mod l.app_per_dc))
          ~replicas ~master_of ~snapshot ~ctx:(Ctx.with_local_nodes ctx local) ())
  in
  { layout = l; nodes; coords }

let nodes t = t.nodes

let coordinator t ~dc ~rank = t.coords.((dc * t.layout.app_per_dc) + rank)

let coordinators t = Array.to_list t.coords

let load t rows =
  List.iter
    (fun (key, value) ->
      List.iter
        (fun node -> Storage_node.load t.nodes.(node) [ (key, value) ])
        (replicas t.layout key))
    rows

let peek t ~dc key = Store.read (Storage_node.store t.nodes.(local_replica t.layout ~dc key)) key

(* Each node's counter handles are resolved on its first message. *)
let meter_send obs =
  let sent = Obs.counter_family obs (Printf.sprintf "net.sent.node%02d")
  and sent_bytes = Obs.counter_family obs (Printf.sprintf "net.sent_bytes.node%02d") in
  fun ~src ~dst:_ ~bytes ->
    Obs.bump (sent src);
    Obs.bump_by (sent_bytes src) bytes

let meter_deliver obs =
  let recv = Obs.counter_family obs (Printf.sprintf "net.recv.node%02d")
  and recv_bytes = Obs.counter_family obs (Printf.sprintf "net.recv_bytes.node%02d") in
  fun ~src:_ ~dst ~bytes ->
    Obs.bump (recv dst);
    Obs.bump_by (recv_bytes dst) bytes
