(** The paper's deployment layout (Figure 1, §5.1), and its assembly over
    any {!Runtime.t}.

    Every data center runs one storage node per hash partition plus
    [app_per_dc] stateless app-servers (the {!Coordinator}).  Storage node
    [dc * partitions + p] is data center [dc]'s replica of partition [p];
    app-server [dcs * partitions + dc * app_per_dc + rank] is the [rank]-th
    app-server of data center [dc].  A key's partition is
    [Key.hash key mod partitions], its replica group is that partition's
    node in every data center, and its master is the group member in
    [master_dc_of key].  The simulated {!Cluster}, the wire server and the
    baselines' fabric all take their node ids from here. *)

open Mdcc_storage

type layout = private {
  dcs : int;  (** data centers, which is also the replication factor *)
  partitions : int;
  app_per_dc : int;
  master_dc_of : Key.t -> int;
}

val layout :
  ?master_dc_of:(Key.t -> int) -> dcs:int -> partitions:int -> app_per_dc:int -> unit -> layout
(** Raises {!Mdcc_util.Invariant.Violation} unless all three counts are
    [>= 1].  The default [master_dc_of] hashes the key apart from its
    partition, so masters spread evenly. *)

val partition_of : layout -> Key.t -> int
val storage_node : layout -> dc:int -> int -> int
val local_replica : layout -> dc:int -> Key.t -> int
(** The key's replica in data center [dc]. *)

val replicas : layout -> Key.t -> int list
val master_of : layout -> Key.t -> int
val app_node : layout -> dc:int -> rank:int -> int

val dc_of : layout -> int -> int
(** Data center of a storage or app-server node id. *)

type t

val create :
  runtime:Runtime.t -> layout:layout -> config:Config.t -> schema:Schema.t -> ctx:Ctx.t -> t
(** Builds the storage nodes in node-id order, then the coordinators in
    app-server order, so each component's split of the runtime's RNG
    depends on the layout alone.  Each coordinator gets its data center's
    storage nodes as [ctx.local_nodes] and reads their stores directly at
    the [`Snapshot] level. *)

val nodes : t -> Storage_node.t array
(** The storage nodes, indexed by node id. *)

val coordinator : t -> dc:int -> rank:int -> Coordinator.t
(** Requires [0 <= dc < dcs] and [0 <= rank < app_per_dc]. *)

val coordinators : t -> Coordinator.t list

val load : t -> (Key.t * Value.t) list -> unit
(** Install committed rows (version 1) on every replica of each key. *)

val peek : t -> dc:int -> Key.t -> (Value.t * int) option
(** The committed row at a data center's replica, read from its store. *)

val meter_send : Mdcc_obs.Obs.t -> src:int -> dst:int -> bytes:int -> unit
(** With {!meter_deliver}, the per-node traffic counters ([net.sent.nodeNN],
    [net.sent_bytes.nodeNN], [net.recv.nodeNN], [net.recv_bytes.nodeNN]) a
    runtime's meter hook calls next to {!Messages.size_of}.  Apply it to
    [obs] once, when the meter is installed: the returned hook resolves each
    node's counter handles on that node's first message and then bumps them
    without hashing or allocating. *)

val meter_deliver : Mdcc_obs.Obs.t -> src:int -> dst:int -> bytes:int -> unit
