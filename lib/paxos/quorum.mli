(** Quorum arithmetic for Classic and Fast Paxos.

    With replication factor [n], a classic quorum has
    [floor(n/2) + 1] members; a fast quorum must additionally guarantee that
    any two fast quorums and any classic quorum share a member
    ([2f + c - 2n >= 1], §3.3.1 requirement (ii)); the typical setting used
    throughout the paper is [n = 5, c = 3, f = 4].

    The collision-recovery rule built on these sizes (Fast Paxos
    Phase2Start / ProvedSafe) is {!Mdcc_core.Rstate.proved_safe}. *)

val classic_size : n:int -> int

val fast_size : n:int -> int
(** Smallest [f] satisfying the fast-quorum intersection requirement given
    the classic size for the same [n]. *)

val fast_impossible : n:int -> acks:int -> rejects:int -> bool
(** With [acks] positive and [rejects] negative responses so far out of [n],
    can a fast quorum still be reached for {e either} outcome?  [true] means
    a Fast Paxos collision is certain and recovery should start. *)
