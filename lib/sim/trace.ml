type event = { at : float; source : string; body : string }

let render ev = Printf.sprintf "[%10.2f] %-12s %s" ev.at ev.source ev.body

let stdout_sink line = print_endline line

(* Trace state is domain-local: a chaos worker re-running a violating seed
   with tracing enabled must not turn tracing on (or redirect the sink) for
   runs executing concurrently on sibling domains.  Fresh domains start
   from the same defaults a fresh process would. *)
type state = {
  mutable flag : bool;
  mutable sink : string -> unit;
  mutable event_sink : (event -> unit) option;
}

let key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { flag = false; sink = stdout_sink; event_sink = None })

let state () = Domain.DLS.get key

let enable () = (state ()).flag <- true

let disable () = (state ()).flag <- false

let enabled () = (state ()).flag

let set_sink f = (state ()).sink <- f

let reset_sink () = (state ()).sink <- stdout_sink

let set_event_sink f = (state ()).event_sink <- Some f

let reset_event_sink () = (state ()).event_sink <- None

let record ev =
  let s = state () in
  (match s.event_sink with Some f -> f ev | None -> ());
  if s.flag then s.sink (render ev)

(* A handle is this domain's state cell, resolved once.  Runtimes hold one
   so the per-trace-point liveness check is two field loads, not a DLS
   lookup — and the check happens *before* any formatting, so a disabled
   trace point costs no allocation at all. *)
type handle = state

let handle = state

let active (h : handle) = h.flag || h.event_sink <> None

let record_at (h : handle) ~at ~tag body =
  if h.flag || h.event_sink <> None then begin
    let ev = { at; source = tag; body } in
    (match h.event_sink with Some f -> f ev | None -> ());
    if h.flag then h.sink (render ev)
  end

let emit engine ~tag fmt =
  Printf.ksprintf
    (fun msg ->
      let s = state () in
      if s.flag || s.event_sink <> None then
        record { at = Engine.now engine; source = tag; body = msg })
    fmt
