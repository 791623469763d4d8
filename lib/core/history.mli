(** The protocol's typed event stream, and the execution history the chaos
    checker reads from it.

    Every protocol fact — a submission, a proposal, a vote, a learned
    decision, a collision, a visibility, a recovery step, a repair — is one
    {!event}, handed once to {!emit}.  [emit] alone fans it out to the four
    observation channels: registry counters, per-transaction span events,
    protocol trace lines, and the history recorder.

    A history is a flat, chronological log of everything the safety checker
    needs to decide whether an execution was correct: what each transaction
    proposed (its write-set carries the read versions as the [vread] of every
    physical/guard update), what the coordinator decided, which replicas
    executed or voided each option (and the committed value/version that
    resulted), and which faults the nemesis injected along the way.  Only
    [Submitted], [Decided], [Applied] (when the row changed), [Voided] and
    [Fault] are recorded; the other constructors feed the remaining channels.

    Recording and emitting are entirely passive — they never draw
    randomness or schedule events — so wiring a recorder into a cluster does
    not perturb the simulated execution: a run with a recorder is
    event-for-event identical to the same seed without one. *)

open Mdcc_storage

type applied_by =
  | Visibility  (** a Visibility message executed the option; the row changed *)
  | Visibility_noop
      (** a Visibility message executed the option without changing the row
          — a read guard, or an option a rebase had already folded in.  Not
          recorded: the checker sees only changes to committed state. *)
  | Replay of int  (** anti-entropy replayed the committed delta from this peer *)

type recovery =
  | Escalated of { txid : Txn.id; key : Key.t; via : int; timeout : bool }
      (** a coordinator sent [Start_recovery] to node [via] — after a
          collision, or after a learn [timeout] *)
  | Started of { key : Key.t; ballot : int }
      (** a master began collision recovery at a classic ballot *)
  | Phase1 of { key : Key.t }  (** a master broadcast a Phase 1 round *)
  | Resolved of { key : Key.t; options : int; forced : int; free : int }
      (** recovery re-proposed [options] options, [forced] by earlier votes *)
  | Txn_started of { txid : Txn.id; keys : int }
      (** a storage node began recovering a dangling transaction *)
  | Txn_finished of { txid : Txn.id; committed : bool }

type event =
  | Submitted of { time : float; coordinator : int; txn : Txn.t }
      (** the commit protocol started for this transaction *)
  | Decided of { time : float; txid : Txn.id; outcome : Txn.outcome; fast : bool }
      (** the coordinator's decision callback fired; [fast] when it
          committed with every option learned on the pure fast path *)
  | Applied of {
      time : float;
      node : int;
      txid : Txn.id;
      key : Key.t;
      version : int;  (** committed version after executing the option *)
      value : Value.t;  (** committed value after executing the option *)
      by : applied_by;
    }  (** a replica executed a committed option *)
  | Voided of { time : float; node : int; txid : Txn.id; key : Key.t }
      (** a replica voided an aborted option (Visibility, aborted) *)
  | Fault of { time : float; label : string }
      (** a nemesis fault was injected (for violation reports) *)
  | Proposed of { txid : Txn.id; key : Key.t; route : [ `Fast | `Classic ] }
      (** a coordinator proposed an option to every replica, or to the master *)
  | Voted of {
      txid : Txn.id;
      key : Key.t;
      route : [ `Fast | `Classic | `Master ];
      decision : Woption.decision;
      reason : Rstate.reject_reason option;
    }
      (** an acceptor's fast vote, an acceptor's Phase 2a vote, or the
          stable master validating an option for its classic round *)
  | Learned of {
      txid : Txn.id;
      key : Key.t;
      decision : Woption.decision;
      by : [ `Coordinator | `Master ];
    }  (** a quorum decided the option, as seen by its coordinator or master *)
  | Collision of {
      txid : Txn.id;
      key : Key.t;
      stage : [ `Detected of int * int | `Resolved of float ];
    }
      (** no fast quorum is possible ([acks], [rejects]); later, the
          collided instance was learned after the given sim-time ms *)
  | Redirected of { txid : Txn.id; key : Key.t; master : int }
      (** a coordinator re-routed an option to the record's master *)
  | Recovery of recovery
  | Repair of { key : Key.t; cause : [ `Rebase | `Unknown_update of Txn.id ] }
      (** a rebase advanced our copy, or a committed Visibility for an
          unknown update was refused in favour of catching up *)
  | Divergence of { peer : int; key : Key.t; at : int option }
      (** anti-entropy found the [(peer, key)] pair diverged at this version,
          or ([None]) found it agreeing again *)
  | Read of [ `Local | `Majority | `Snapshot | `Snapshot_fallback ]
      (** a coordinator read took this path *)

type t

val create : unit -> t

val record : t -> event -> unit

val events : t -> event list
(** All recorded events, in recording (chronological) order. *)

val length : t -> int

type sink
(** One node's binding of the stream to its channels. *)

val sink :
  runtime:Runtime.t ->
  obs:Mdcc_obs.Obs.t ->
  history:t option ->
  node:int ->
  tag:string ->
  sink
(** Span events are attributed to [node], trace lines to [tag]. *)

val emit : sink -> event -> unit
(** Bump the fact's counters, append its span event (only when [obs] has a
    span store), write its trace line (only when {!Runtime.tracing}) and
    record it into the history, if it is one the checker reads.
    docs/OBSERVABILITY.md tabulates each constructor's projections. *)
