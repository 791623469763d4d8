(** The simulated deployment of Figure 1: the {!Deployment} layout and
    assembly on a simulated network, with app-server nodes appended to
    every data center, the per-node traffic meter, and the fault
    operations a chaos run or an experiment applies.  A transaction whose
    write-set spans partitions runs against several replica groups and is
    still decided atomically: the learned-all rule of §3.2.1 never looks at
    group boundaries. *)

open Mdcc_storage

type t

(** First-class deployment description, validated on construction
    ([partitions >= 1], [app_servers_per_dc >= 1],
    [0 <= drop_probability <= 1]). *)
module Spec : sig
  type t = private {
    topology : Mdcc_sim.Topology.t option;
        (** storage topology; [None] = the paper's five EC2 regions with
            [partitions] storage nodes each *)
    partitions : int;  (** hash partitions of the keyspace per DC *)
    app_servers_per_dc : int;
    drop_probability : float;  (** iid message-drop rate of the sim network *)
    master_dc_of : (Key.t -> int) option;
        (** master-locality policy; [None] = uniform hash *)
  }

  val make :
    ?topology:Mdcc_sim.Topology.t ->
    ?partitions:int ->
    ?app_servers_per_dc:int ->
    ?drop_probability:float ->
    ?master_dc_of:(Key.t -> int) ->
    unit ->
    t
  (** Smart constructor; defaults: 1 partition, 1 app-server per DC, no
      drops, hashed masters, EC2-five topology. *)

  val default : t
  (** [make ()] — the paper's five-DC single-partition deployment. *)
end

val create :
  engine:Mdcc_sim.Engine.t ->
  spec:Spec.t ->
  ?ctx:Ctx.t ->
  config:Config.t ->
  schema:Schema.t ->
  unit ->
  t
(** [spec.topology], when given, must contain exactly [spec.partitions]
    nodes per data center, and [config.replication] must equal the number
    of data centers.  Every node gets [ctx] (default {!Ctx.default}):
    when its [history] is set they all record into it (see
    {!Mdcc_chaos.Runner}), and its [obs] receives the per-node traffic
    counters. *)

val engine : t -> Mdcc_sim.Engine.t
val network : t -> Mdcc_sim.Network.t
val topology : t -> Mdcc_sim.Topology.t
val config : t -> Config.t
val layout : t -> Deployment.layout

val num_dcs : t -> int

val num_partitions : t -> int
val partition_of : t -> Key.t -> int

val obs : t -> Mdcc_obs.Obs.t
(** The observability handle every component of this cluster reports to. *)

val coordinator : t -> dc:int -> rank:int -> Coordinator.t
(** The [rank]-th app-server of a data center
    ([0 <= rank < app_servers_per_dc]). *)

val coordinators : t -> Coordinator.t list

val storage_nodes : t -> Storage_node.t list

val replicas : t -> Key.t -> int list
(** {!Deployment.replicas}. *)

val master_node : t -> Key.t -> int
(** {!Deployment.master_of}, always a member of [replicas t key]. *)

val load : t -> (Key.t * Value.t) list -> unit
(** Install committed rows (version 1) on every replica — experiment
    setup. *)

val peek : t -> dc:int -> Key.t -> (Value.t * int) option
(** Direct inspection of the committed state at a data center's replica
    (bypasses the network; for tests and invariant checks). *)

val start_maintenance : t -> unit
(** Arm the dangling-transaction scan on every storage node. *)

val fail_dc : t -> int -> unit
(** Kill a data center (all messages to/from it are dropped). *)

val recover_dc : t -> int -> unit

val sync_dc : t -> int -> unit
(** Run the anti-entropy sweep on every storage node of a data center
    (typically right after {!recover_dc}). *)

val fail_node : t -> int -> unit
(** Crash a single node (all its traffic is dropped until restart). *)

val restart_node : t -> int -> unit
(** Restart-with-recovery entry point: bring a crashed node back (its
    committed store is durable and survives the crash) and immediately run
    the peer-directed anti-entropy sweep so it repairs any instance it
    missed while down.  App-server nodes are simply reconnected. *)

val sync_all : t -> unit
(** Peer-directed anti-entropy on every storage node — what a chaos run
    executes after healing all faults so replicas can reconverge. *)
