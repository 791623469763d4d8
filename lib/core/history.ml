open Mdcc_storage
module Obs = Mdcc_obs.Obs

type applied_by = Visibility | Visibility_noop | Replay of int

type recovery =
  | Escalated of { txid : Txn.id; key : Key.t; via : int; timeout : bool }
  | Started of { key : Key.t; ballot : int }
  | Phase1 of { key : Key.t }
  | Resolved of { key : Key.t; options : int; forced : int; free : int }
  | Txn_started of { txid : Txn.id; keys : int }
  | Txn_finished of { txid : Txn.id; committed : bool }

type event =
  | Submitted of { time : float; coordinator : int; txn : Txn.t }
  | Decided of { time : float; txid : Txn.id; outcome : Txn.outcome; fast : bool }
  | Applied of {
      time : float;
      node : int;
      txid : Txn.id;
      key : Key.t;
      version : int;
      value : Value.t;
      by : applied_by;
    }
  | Voided of { time : float; node : int; txid : Txn.id; key : Key.t }
  | Fault of { time : float; label : string }
  | Proposed of { txid : Txn.id; key : Key.t; route : [ `Fast | `Classic ] }
  | Voted of {
      txid : Txn.id;
      key : Key.t;
      route : [ `Fast | `Classic | `Master ];
      decision : Woption.decision;
      reason : Rstate.reject_reason option;
    }
  | Learned of {
      txid : Txn.id;
      key : Key.t;
      decision : Woption.decision;
      by : [ `Coordinator | `Master ];
    }
  | Collision of {
      txid : Txn.id;
      key : Key.t;
      stage : [ `Detected of int * int | `Resolved of float ];
    }
  | Redirected of { txid : Txn.id; key : Key.t; master : int }
  | Recovery of recovery
  | Repair of { key : Key.t; cause : [ `Rebase | `Unknown_update of Txn.id ] }
  | Divergence of { peer : int; key : Key.t; at : int option }
  | Read of [ `Local | `Majority | `Snapshot | `Snapshot_fallback ]

type t = { mutable rev : event list; mutable count : int }

let create () = { rev = []; count = 0 }

let record t ev =
  t.rev <- ev :: t.rev;
  t.count <- t.count + 1

let events t = List.rev t.rev

let length t = t.count

(* ------------------------------------------------------------------ *)
(* The event stream                                                    *)
(* ------------------------------------------------------------------ *)

type h = Mdcc_obs.Registry.handle

(* The counters [emit] bumps, each field named as its counter. *)
type counters = {
  txn_submitted : h; fast_commit : h; assisted_commit : h; abort_constraint : h;
  abort_conflict : h; visibility_exec : h; visibility_void : h; antientropy_repair : h;
  option_accept : h; option_reject_version : h; option_reject_outstanding : h;
  option_reject_demarcation : h; classic_learned : h; collision : h; collision_resolved : h;
  redirect : h; timeout_recovery : h; recovery_start : h; phase1_round : h;
  antientropy_divergence : h; read_local : h; read_majority : h; snapshot_fast_path : h;
  snapshot_fallback : h;
}

let counters obs =
  let h = Obs.counter_handle obs in
  {
    txn_submitted = h "txn_submitted"; fast_commit = h "fast_commit";
    assisted_commit = h "assisted_commit"; abort_constraint = h "abort_constraint";
    abort_conflict = h "abort_conflict"; visibility_exec = h "visibility_exec";
    visibility_void = h "visibility_void"; antientropy_repair = h "antientropy_repair";
    option_accept = h "option_accept"; option_reject_version = h "option_reject_version";
    option_reject_outstanding = h "option_reject_outstanding";
    option_reject_demarcation = h "option_reject_demarcation";
    classic_learned = h "classic_learned"; collision = h "collision";
    collision_resolved = h "collision_resolved"; redirect = h "redirect";
    timeout_recovery = h "timeout_recovery"; recovery_start = h "recovery_start";
    phase1_round = h "phase1_round"; antientropy_divergence = h "antientropy_divergence";
    read_local = h "read_local"; read_majority = h "read_majority";
    snapshot_fast_path = h "snapshot_fast_path"; snapshot_fallback = h "snapshot_fallback";
  }

type sink = {
  runtime : Runtime.t;
  obs : Obs.t;
  c : counters;  (* resolved when the sink is created *)
  spans : bool;
  history : t option;
  node : int;
  tag : string;
}

let sink ~runtime ~obs ~history ~node ~tag =
  { runtime; obs; c = counters obs; spans = Obs.spans obs <> None; history; node; tag }

let verdict decision reason =
  match (decision, reason) with
  | Woption.Accepted, _ -> "acc"
  | Woption.Rejected, Some Rstate.Version_validation -> "rej:version"
  | Woption.Rejected, Some Rstate.Outstanding_option -> "rej:outstanding"
  | Woption.Rejected, Some Rstate.Demarcation -> "rej:demarcation"
  | Woption.Rejected, None -> "rej"

(* A vote's counter: none for a reasonless reject. *)
let count_vote s decision reason =
  match (decision, reason) with
  | Woption.Accepted, _ -> Obs.bump s.c.option_accept
  | Woption.Rejected, Some Rstate.Version_validation -> Obs.bump s.c.option_reject_version
  | Woption.Rejected, Some Rstate.Outstanding_option -> Obs.bump s.c.option_reject_outstanding
  | Woption.Rejected, Some Rstate.Demarcation -> Obs.bump s.c.option_reject_demarcation
  | Woption.Rejected, None -> ()

let record_in s ev = match s.history with Some h -> record h ev | None -> ()

let tracing s = Runtime.tracing s.runtime

let trace s fmt = Runtime.trace s.runtime ~tag:s.tag fmt

(* Callers check [s.spans] first, so a disabled span store never sees the
   key rendered or the detail built. *)
let span s ~txid ~name ?key detail =
  Obs.span_event s.obs ~txid ~at:(Runtime.now s.runtime) ~node:s.node ~name
    ?key:(Option.map Key.to_string key) ~detail ()

let visible s ~txid ~key ~counter verdict =
  Obs.bump counter;
  if s.spans then span s ~txid ~name:"visible" ~key verdict;
  if tracing s then trace s "visibility %s %s -> %s" txid (Key.to_string key) verdict

(* The only place that knows the four channels: counters, span events,
   trace lines and the checker's history.  Strings are built only for a
   channel that is listening. *)
let emit s ev =
  match ev with
  | Submitted { txn; _ } ->
    record_in s ev;
    Obs.bump s.c.txn_submitted;
    if s.spans then begin
      let txid = txn.Txn.id in
      Obs.begin_txn s.obs ~txid ~at:(Runtime.now s.runtime);
      span s ~txid ~name:"submit"
        (Printf.sprintf "%d keys" (Key.Set.cardinal (Key.Set.of_list (Txn.keys txn))))
    end
  | Decided { txid; outcome; fast; _ } ->
    Obs.bump
      (match outcome with
      | Txn.Committed -> if fast then s.c.fast_commit else s.c.assisted_commit
      | Txn.Aborted Txn.Constraint_violation -> s.c.abort_constraint
      | Txn.Aborted _ -> s.c.abort_conflict);
    if s.spans || tracing s then begin
      let outcome_str = Format.asprintf "%a" Txn.pp_outcome outcome in
      if s.spans then span s ~txid ~name:"decide" outcome_str;
      trace s "decide %s %s" txid outcome_str
    end;
    record_in s ev
  | Applied { txid; key; by = (Visibility | Visibility_noop) as by; _ } ->
    if by = Visibility then record_in s ev;
    visible s ~txid ~key ~counter:s.c.visibility_exec "exec"
  | Applied { txid; key; by = Replay src; _ } ->
    Obs.bump s.c.antientropy_repair;
    record_in s ev;
    if s.spans then span s ~txid ~name:"repair" ~key "replay delta";
    if tracing s then
      trace s "repair %s %s: replayed delta from node %d" txid (Key.to_string key) src
  | Voided { txid; key; _ } ->
    record_in s ev;
    visible s ~txid ~key ~counter:s.c.visibility_void "void"
  | Fault _ -> record_in s ev
  | Proposed { txid; key; route } ->
    if s.spans then
      span s ~txid ~name:"propose" ~key
        (match route with `Fast -> "fast" | `Classic -> "classic")
  | Voted { txid; key; route = `Fast; decision; reason } ->
    let word = verdict decision reason in
    count_vote s decision reason;
    if tracing s then trace s "fast vote %s %s %s" txid (Key.to_string key) word;
    if s.spans then span s ~txid ~name:"vote" ~key ("fast " ^ word)
  | Voted { txid; key; route = `Classic; decision; _ } ->
    if s.spans then span s ~txid ~name:"vote" ~key ("classic " ^ verdict decision None)
  | Voted { route = `Master; decision; reason; _ } ->
    count_vote s decision reason
  | Learned { txid; key; decision; by = `Coordinator } ->
    if s.spans then
      span s ~txid ~name:"learn" ~key
        (match decision with Woption.Accepted -> "accepted" | Woption.Rejected -> "rejected")
  | Learned { txid; key; decision; by = `Master } ->
    Obs.bump s.c.classic_learned;
    if tracing s then
      trace s "classic learned %s %s %s" txid (Key.to_string key) (verdict decision None)
  | Collision { txid; key; stage = `Detected (acks, rejects) } ->
    Obs.bump s.c.collision;
    if s.spans then
      span s ~txid ~name:"collision" ~key (Printf.sprintf "acks=%d rejects=%d" acks rejects)
  | Collision { txid; key; stage = `Resolved after } ->
    Obs.bump s.c.collision_resolved;
    Obs.observe s.obs "collision_resolve_ms" after;
    if s.spans then span s ~txid ~name:"collision_resolved" ~key ""
  | Redirected { txid; key; master } ->
    Obs.bump s.c.redirect;
    if s.spans then span s ~txid ~name:"redirect" ~key (Printf.sprintf "to master %d" master)
  | Recovery (Escalated { txid; key; via; timeout }) ->
    if timeout then Obs.bump s.c.timeout_recovery;
    if tracing s then trace s "start_recovery %s %s via node %d" txid (Key.to_string key) via;
    if s.spans then
      span s ~txid ~name:"start_recovery" ~key (Printf.sprintf "via node %d" via)
  | Recovery (Started { key; ballot }) ->
    Obs.bump s.c.recovery_start;
    if tracing s then trace s "recovery start %s ballot=%d" (Key.to_string key) ballot
  | Recovery (Phase1 _) -> Obs.bump s.c.phase1_round
  | Recovery (Resolved { key; options; forced; free }) ->
    if tracing s then
      trace s "recovery resolved %s: %d options (%d forced, %d free)" (Key.to_string key)
        options forced free
  | Recovery (Txn_started { txid; keys }) -> trace s "txn recovery start %s (%d keys)" txid keys
  | Recovery (Txn_finished { txid; committed }) ->
    trace s "txn recovery %s -> %s" txid (if committed then "commit" else "abort")
  | Repair { cause = `Rebase; _ } -> Obs.bump s.c.antientropy_repair
  | Repair { key; cause = `Unknown_update txid } ->
    if tracing s then
      trace s "visibility %s %s unknown update: catching up" txid (Key.to_string key)
  | Divergence { peer; key; at = Some version } ->
    Obs.bump s.c.antientropy_divergence;
    Obs.add_gauge s.obs "diverged_replicas" 1;
    if tracing s then
      trace s "anti-entropy divergence with node %d on %s at v%d" peer (Key.to_string key)
        version
  | Divergence { at = None; _ } -> Obs.add_gauge s.obs "diverged_replicas" (-1)
  | Read path ->
    Obs.bump
      (match path with
      | `Local -> s.c.read_local
      | `Majority -> s.c.read_majority
      | `Snapshot -> s.c.snapshot_fast_path
      | `Snapshot_fallback -> s.c.snapshot_fallback)
