(** Shared deployment scaffolding for the baseline protocols.

    Quorum writes, 2PC and Megastore* run on the same simulated topology as
    MDCC: [partitions] storage nodes per data center plus app-server nodes,
    with node ids and key placement from {!Mdcc_core.Deployment}.  This
    module owns the stores and provides the local read path (reads are
    identical across every protocol in the paper: they go to the replica in
    the client's data center), so each baseline module only implements its
    commit traffic. *)

open Mdcc_storage

type t

val create :
  engine:Mdcc_sim.Engine.t ->
  ?partitions:int ->
  ?app_servers_per_dc:int ->
  schema:Schema.t ->
  unit ->
  t
(** The paper's five EC2 regions.  Raises {!Mdcc_util.Invariant.Violation}
    unless [partitions] and [app_servers_per_dc] are [>= 1]. *)

val engine : t -> Mdcc_sim.Engine.t
val network : t -> Mdcc_sim.Network.t
val num_dcs : t -> int
val schema : t -> Schema.t

val store_of : t -> int -> Store.t
(** Store of a storage node (raises for app-server ids). *)

val storage_node_ids : t -> int list

val replicas : t -> Key.t -> int list
(** {!Mdcc_core.Deployment.replicas}. *)

val app_node : t -> dc:int -> int
(** Round-robins over the data center's app servers. *)

val register_storage : t -> int -> (src:int -> Mdcc_sim.Network.payload -> unit) -> unit
(** Install a storage node handler; [Read_request]s are answered from the
    node's store before delegating to the protocol handler. *)

val register_app : t -> int -> (src:int -> Mdcc_sim.Network.payload -> unit) -> unit
(** Install an app-server handler; [Read_reply]s for reads issued through
    {!read_local} are consumed before delegating. *)

val register_all_apps : t -> (node:int -> src:int -> Mdcc_sim.Network.payload -> unit) -> unit

val read_local : t -> dc:int -> Key.t -> ((Value.t * int) option -> unit) -> unit

val send : t -> src:int -> dst:int -> Mdcc_sim.Network.payload -> unit

val load : t -> (Key.t * Value.t) list -> unit

val peek : t -> dc:int -> Key.t -> (Value.t * int) option

val fail_dc : t -> int -> unit
val recover_dc : t -> int -> unit
