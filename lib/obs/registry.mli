(** Deterministic metrics registry: counters, gauges, and histograms keyed
    by name.  All values derive from sim time and protocol events, never the
    wall clock, so a snapshot is a pure function of the run.  Snapshots
    iterate in sorted name order ({!Mdcc_util.Table.sorted_bindings}) and
    render byte-identically across identical runs. *)

type t

val create : unit -> t

val incr : t -> ?by:int -> string -> unit
(** Add [by] (default 1) to a counter, creating it at zero first: a name
    lookup, then the same add on the same cell as {!bump_by}.  For cold paths;
    hot paths hold a {!handle}. *)

type handle
(** A counter name resolved once: bumping it hashes nothing and allocates
    nothing. *)

val counter_handle : t -> string -> handle
(** Creates no counter: the entry appears on the handle's first {!bump}, so
    key sets and every rendering are the same as with {!incr}.  The handle
    stays valid across {!clear}, counting into the fresh table from 0. *)

val bump : handle -> unit
(** Add 1 through a handle. *)

val bump_by : handle -> int -> unit
(** Add [by] through a handle.  A plain argument, not [?by]: an optional
    argument is boxed at every call that crosses an opaque module
    boundary. *)

val set_gauge : t -> string -> int -> unit

val add_gauge : t -> string -> int -> unit
(** Add a (possibly negative) delta to a gauge, creating it at zero. *)

val observe : t -> string -> float -> unit
(** Record one sample into a histogram, creating it empty first. *)

val ensure_hist : t -> string -> unit
(** Create a histogram with no samples if absent (so {!merge} and
    renderers see it even before the first observation). *)

val counter : t -> string -> int
(** Current value of a counter ([0] if never incremented). *)

val gauge : t -> string -> int

val hist_count : t -> string -> int
(** Number of samples observed into a histogram. *)

val counter_bindings : t -> (string * int) list
val gauge_bindings : t -> (string * int) list
(** Current values in sorted name order. *)

val hist_bindings : t -> (string * float list) list
(** Histograms in sorted name order, samples in observation order;
    includes empty histograms created by {!ensure_hist}. *)

val merge : into:t -> t -> unit
(** [merge ~into src] folds [src] into [into]: counters add, gauges take
    [src]'s value (last write wins, as in a sequential run), histogram
    samples append in observation order and histogram {e names} union
    even when [src] recorded no samples.  Iteration is in sorted name
    order, so merging the same sources in the same order is
    deterministic.  [src] is unchanged. *)

val clear : t -> unit

val to_json : t -> Json.t
(** [{"counters":{..},"gauges":{..},"histograms":{name:{"count":..,"mean":..,
    "min":..,"max":..,"p50":..,"p95":..,"p99":..}}}] with every object's
    members in sorted name order. *)
