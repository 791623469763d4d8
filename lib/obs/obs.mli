(** The observability handle threaded through the protocol: a metrics
    {!Registry.t} plus an optional per-transaction {!Span.t} store.  Every
    protocol component takes [?obs] (defaulting to the domain-local
    {!ambient} handle, whose span store is disabled so long-running drivers
    don't accumulate unbounded state); the chaos runner creates a fresh
    handle per run with spans enabled. *)

type t

val create : ?spans:bool -> unit -> t
(** [create ()] has no span store; [create ~spans:true ()] records spans. *)

val registry : t -> Registry.t
val spans : t -> Span.t option

val incr : t -> ?by:int -> string -> unit
val set_gauge : t -> string -> int -> unit
val add_gauge : t -> string -> int -> unit
val observe : t -> string -> float -> unit
val counter_handle : t -> string -> Registry.handle
val bump : Registry.handle -> unit
val bump_by : Registry.handle -> int -> unit
(** Registry pass-throughs.  Hot paths bump handles resolved when their
    component is created; [incr] by name is for cold paths. *)

val counter_family : t -> (int -> string) -> int -> Registry.handle
(** [counter_family t name_of] maps a small non-negative index (a node id,
    a partition) to the handle for [name_of i], resolving each name once,
    on its index's first use. *)

val begin_txn : t -> txid:string -> at:float -> unit

val span_event :
  t ->
  txid:string ->
  at:float ->
  node:int ->
  name:string ->
  ?key:string ->
  detail:string ->
  unit ->
  unit
(** No-ops when the span store is disabled. *)

val metrics_json : t -> Json.t
val spans_json : t -> Json.t
(** [spans_json] is [List []] when spans are disabled. *)

val merge : into:t -> t -> unit
(** Fold [src]'s registry into [into]'s ({!Registry.merge}).  Span stores
    are not merged — aggregate runs keep spans per-handle. *)

val ambient : unit -> t
(** The {e domain-local} default handle (spans disabled).  Drivers that
    export metrics — [experiments_cli --metrics-out], [bench] — snapshot
    this.  Each domain sees its own handle: parallel tasks that should feed
    one export run against explicit fresh handles and {!merge} them in task
    order on the calling domain. *)

val reset_ambient : unit -> unit
(** Clear the calling domain's ambient registry (fresh baseline before a
    driver run). *)
