(** Lightweight, globally-switched protocol tracing.

    Trace points produce structured {!event}s; the human-readable log line
    is one {e rendering} of an event.  Disabled by default so the hot
    simulation loop pays only a flag check; enable it in tests or from the
    CLI's [--trace] flag to get a readable interleaved log of protocol
    decisions with virtual timestamps, or install an event sink to consume
    the structured form directly. *)

type event = {
  at : float;  (** virtual (sim) timestamp, milliseconds *)
  source : string;  (** emitting component tag, e.g. ["node 3"] *)
  body : string;  (** formatted message *)
}

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

val emit : Engine.t -> tag:string -> ('a, unit, string, unit) format4 -> 'a
(** [emit engine ~tag fmt ...] builds an {!event} and records it when
    tracing is enabled {e or} an event sink is installed; otherwise the
    arguments are consumed and ignored. *)

val render : event -> string
(** The canonical line rendering ["[%10.2f] %-12s %s"] used by the line
    sink. *)

val set_sink : (string -> unit) -> unit
(** Redirect rendered trace lines (without trailing newline) to a custom
    consumer — e.g. a buffer, so a chaos run can attach the interleaved
    protocol trace of a violating seed to its report instead of losing it to
    the terminal.  Only called when tracing is enabled. *)

val reset_sink : unit -> unit
(** Restore the default stdout sink. *)

val set_event_sink : (event -> unit) -> unit
(** Install a structured consumer.  Unlike the line sink it receives events
    even while tracing is disabled — observability collectors should not
    force verbose logging on. *)

val reset_event_sink : unit -> unit

type handle
(** This domain's trace state, resolved once (a [Domain.DLS] lookup) so a
    runtime's per-trace-point liveness check is two field loads.  Like the
    profiler's ambient, a handle is only valid on the domain that resolved
    it. *)

val handle : unit -> handle

val active : handle -> bool
(** [true] when tracing is enabled or an event sink is installed — i.e.
    when building a trace line would not be wasted work.  Runtimes check
    this {e before} formatting so disabled trace points allocate nothing. *)

val record_at : handle -> at:float -> tag:string -> string -> unit
(** Record an already-rendered message as an event at [at]; a no-op unless
    {!active}. *)
