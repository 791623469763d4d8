(* Tests for ballots and quorum arithmetic.  The recovery rule built on
   them is tested in t_rstate. *)

open Mdcc_paxos

let ballot = Alcotest.testable Ballot.pp Ballot.equal

let test_ballot_ordering () =
  let f0 = Ballot.initial_fast in
  let c1 = Ballot.classic ~number:1 ~proposer:3 in
  let f1 = Ballot.fast ~number:1 ~proposer:3 in
  Alcotest.(check bool) "fast0 < classic1" true Ballot.(f0 <% c1);
  Alcotest.(check bool) "fast1 < classic1 (classic outranks fast at equal number)" true
    Ballot.(f1 <% c1);
  Alcotest.(check bool) "classic1 not < fast1" false Ballot.(c1 <% f1);
  Alcotest.(check bool) "proposer breaks ties" true
    Ballot.(Ballot.classic ~number:1 ~proposer:1 <% Ballot.classic ~number:1 ~proposer:2)

let test_ballot_next_classic () =
  let f0 = Ballot.initial_fast in
  let n = Ballot.next_classic f0 ~proposer:2 in
  Alcotest.(check bool) "next classic beats fast 0" true Ballot.(f0 <% n);
  let c5 = Ballot.classic ~number:5 ~proposer:9 in
  let n2 = Ballot.next_classic c5 ~proposer:2 in
  Alcotest.(check bool) "next classic beats classic 5.9" true Ballot.(c5 <% n2);
  Alcotest.check ballot "bumps the number" (Ballot.classic ~number:6 ~proposer:2) n2

let test_quorum_sizes () =
  Alcotest.(check int) "classic(5)" 3 (Quorum.classic_size ~n:5);
  Alcotest.(check int) "fast(5)" 4 (Quorum.fast_size ~n:5);
  Alcotest.(check int) "classic(3)" 2 (Quorum.classic_size ~n:3);
  Alcotest.(check int) "fast(3)" 3 (Quorum.fast_size ~n:3);
  Alcotest.(check int) "classic(7)" 4 (Quorum.classic_size ~n:7);
  Alcotest.(check int) "fast(7)" 6 (Quorum.fast_size ~n:7)

(* The defining property: any two fast quorums and a classic quorum share a
   member, and any two quorums intersect. *)
let prop_quorum_intersection =
  QCheck.Test.make ~name:"fast quorum intersection property" ~count:100
    QCheck.(int_range 3 15)
    (fun n ->
      let c = Quorum.classic_size ~n and f = Quorum.fast_size ~n in
      (2 * f) + c - (2 * n) >= 1 && 2 * c - n >= 1 && f <= n)

let test_fast_impossible () =
  (* n=5, f=4 *)
  Alcotest.(check bool) "3acc/0rej possible" false (Quorum.fast_impossible ~n:5 ~acks:3 ~rejects:0);
  Alcotest.(check bool) "3acc/2rej collision" true (Quorum.fast_impossible ~n:5 ~acks:3 ~rejects:2);
  Alcotest.(check bool) "2acc/2rej still open (5th could...)" true
    (Quorum.fast_impossible ~n:5 ~acks:2 ~rejects:2);
  Alcotest.(check bool) "4acc reached not impossible" false
    (Quorum.fast_impossible ~n:5 ~acks:4 ~rejects:1);
  Alcotest.(check bool) "0/0 open" false (Quorum.fast_impossible ~n:5 ~acks:0 ~rejects:0)

let suite =
  [
    Alcotest.test_case "ballot ordering" `Quick test_ballot_ordering;
    Alcotest.test_case "ballot next_classic" `Quick test_ballot_next_classic;
    Alcotest.test_case "quorum sizes" `Quick test_quorum_sizes;
    Alcotest.test_case "fast_impossible" `Quick test_fast_impossible;
    QCheck_alcotest.to_alcotest prop_quorum_intersection;
  ]
