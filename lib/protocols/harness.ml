open Mdcc_storage
module Cluster = Mdcc_core.Cluster
module Coordinator = Mdcc_core.Coordinator

type t = {
  name : string;
  engine : Mdcc_sim.Engine.t;
  num_dcs : int;
  submit : dc:int -> Txn.t -> (Txn.outcome -> unit) -> unit;
  read_local : dc:int -> Key.t -> ((Value.t * int) option -> unit) -> unit;
  peek : dc:int -> Key.t -> (Value.t * int) option;
  load : (Key.t * Value.t) list -> unit;
  fail_dc : int -> unit;
  recover_dc : int -> unit;
}

let of_mdcc cluster ~name =
  let { Mdcc_core.Deployment.dcs; app_per_dc; _ } = Cluster.layout cluster in
  let next = Array.make dcs 0 in
  let pick dc =
    let rank = next.(dc) mod app_per_dc in
    next.(dc) <- next.(dc) + 1;
    Cluster.coordinator cluster ~dc ~rank
  in
  {
    name;
    engine = Cluster.engine cluster;
    num_dcs = Cluster.num_dcs cluster;
    submit = (fun ~dc txn cb -> Coordinator.submit (pick dc) txn cb);
    read_local = (fun ~dc key cb -> Coordinator.read ~level:`Local (pick dc) key cb);
    peek = (fun ~dc key -> Cluster.peek cluster ~dc key);
    load = (fun rows -> Cluster.load cluster rows);
    fail_dc = (fun dc -> Cluster.fail_dc cluster dc);
    recover_dc = (fun dc -> Cluster.recover_dc cluster dc);
  }
