(* Edge cases and smaller behaviours not covered by the focused suites. *)

open Mdcc_storage
module Engine = Mdcc_sim.Engine
module Topology = Mdcc_sim.Topology
module Net = Mdcc_sim.Network
module Rng = Mdcc_util.Rng
module Harness = Mdcc_protocols.Harness

let test_engine_schedule_in_past_clamps () =
  let e = Engine.create ~seed:1 in
  ignore (Engine.schedule e ~after:10.0 (fun () -> ()));
  Engine.run e;
  (* Scheduling at an absolute time in the past fires immediately (clamped
     to now), never travels back. *)
  let fired_at = ref neg_infinity in
  ignore (Engine.schedule_at e ~at:3.0 (fun () -> fired_at := Engine.now e));
  Engine.run e;
  Alcotest.(check (float 0.0)) "clamped to now" 10.0 !fired_at

let test_engine_negative_after_clamps () =
  let e = Engine.create ~seed:1 in
  let fired = ref false in
  ignore (Engine.schedule e ~after:(-5.0) (fun () -> fired := true));
  Engine.run e;
  Alcotest.(check bool) "fired" true !fired;
  Alcotest.(check (float 0.0)) "at time zero" 0.0 (Engine.now e)

let test_rng_copy_diverges_from_original () =
  let a = Rng.create 4 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.int64 (Rng.copy a)) (Rng.int64 b)

let test_rng_pick_and_empty () =
  let r = Rng.create 6 in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 50 do
    Alcotest.(check bool) "pick member" true (Array.mem (Rng.pick r arr) arr)
  done;
  Alcotest.(check bool) "empty pick raises" true
    (try
       ignore (Rng.pick r [||]);
       false
     with Mdcc_util.Invariant.Violation _ -> true)

let test_topology_invalid_args () =
  Alcotest.(check bool) "bad matrix rejected" true
    (try
       ignore
         (Topology.make ~dc_names:[| "a"; "b" |] ~rtt:[| [| 0.0 |] |] ~nodes_per_dc:1 ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "zero nodes rejected" true
    (try
       ignore (Topology.make ~dc_names:[| "a" |] ~rtt:[| [| 0.0 |] |] ~nodes_per_dc:0 ());
       false
     with Invalid_argument _ -> true)

let test_topology_custom_three_dc () =
  let topo =
    Topology.make ~dc_names:[| "x"; "y"; "z" |]
      ~rtt:[| [| 0.0; 10.0; 20.0 |]; [| 10.0; 0.0; 30.0 |]; [| 20.0; 30.0; 0.0 |] |]
      ~nodes_per_dc:2 ()
  in
  Alcotest.(check int) "6 nodes" 6 (Topology.num_nodes topo);
  Alcotest.(check (float 0.0)) "one-way" 10.0 (Topology.one_way topo 0 5)

let test_value_pp_and_key_containers () =
  let v = Value.of_list [ ("b", Value.Str "x"); ("a", Value.Int 1) ] in
  Alcotest.(check string) "pp sorted by attr" "{a=1; b=\"x\"}" (Format.asprintf "%a" Value.pp v);
  let k1 = Key.make ~table:"t" ~id:"1" and k2 = Key.make ~table:"t" ~id:"2" in
  let s = Key.Set.of_list [ k1; k2; k1 ] in
  Alcotest.(check int) "set dedups" 2 (Key.Set.cardinal s);
  let m = Key.Map.(empty |> add k1 "a" |> add k2 "b") in
  Alcotest.(check (option string)) "map find" (Some "b") (Key.Map.find_opt k2 m);
  let tbl = Key.Tbl.create 4 in
  Key.Tbl.replace tbl k1 42;
  Alcotest.(check (option int)) "tbl find" (Some 42) (Key.Tbl.find_opt tbl k1)

let test_update_predicates_and_pp () =
  Alcotest.(check bool) "guard flag" true (Update.is_read_guard (Update.Read_guard { vread = 0 }));
  Alcotest.(check bool) "delta flag" true (Update.is_commutative (Update.Delta []));
  let s = Format.asprintf "%a" Update.pp (Update.Delta [ ("x", -2); ("y", 3) ]) in
  Alcotest.(check string) "delta pp" "delta [x-2; y+3]" s;
  Alcotest.(check string) "guard pp" "guard v7"
    (Format.asprintf "%a" Update.pp (Update.Read_guard { vread = 7 }))

let test_harness_of_mdcc_round_robin () =
  let engine = Engine.create ~seed:12 in
  let config = Mdcc_core.Config.make ~replication:5 () in
  let schema = Schema.create [ { Schema.name = "item"; bounds = []; master_dc = 0 } ] in
  let cluster =
    Mdcc_core.Cluster.create ~engine
      ~spec:(Mdcc_core.Cluster.Spec.make ~app_servers_per_dc:2 ())
      ~config ~schema ()
  in
  let h = Harness.of_mdcc cluster ~name:"MDCC" in
  Alcotest.(check string) "name" "MDCC" h.Harness.name;
  Alcotest.(check int) "dcs" 5 h.Harness.num_dcs;
  h.Harness.load [ (Key.make ~table:"item" ~id:"k", Value.of_list [ ("n", Value.Int 1) ]) ];
  (* Submissions from one DC alternate over its two app servers and both
     decide. *)
  let done_count = ref 0 in
  for i = 0 to 3 do
    h.Harness.submit ~dc:1
      (Txn.make
         ~id:(Printf.sprintf "rr%d" i)
         ~updates:[ (Key.make ~table:"item" ~id:"k", Update.Delta [ ("n", 1) ]) ])
      (fun _ -> incr done_count)
  done;
  Engine.run ~until:60_000.0 engine;
  Alcotest.(check int) "all decided" 4 !done_count;
  match h.Harness.peek ~dc:0 (Key.make ~table:"item" ~id:"k") with
  | Some (v, _) -> Alcotest.(check int) "all applied" 5 (Value.get_int v "n")
  | None -> Alcotest.fail "row missing"

let test_session_watermark_initial () =
  let engine = Engine.create ~seed:3 in
  let config = Mdcc_core.Config.make ~replication:5 () in
  let schema = Schema.create [ { Schema.name = "item"; bounds = []; master_dc = 0 } ] in
  let cluster =
    Mdcc_core.Cluster.create ~engine ~spec:Mdcc_core.Cluster.Spec.default ~config ~schema ()
  in
  let session = Mdcc_core.Session.create (Mdcc_core.Cluster.coordinator cluster ~dc:0 ~rank:0) in
  Alcotest.(check int) "no watermark" 0
    (Mdcc_core.Session.watermark session (Key.make ~table:"item" ~id:"q"))

let suite =
  [
    Alcotest.test_case "engine schedule_at in past clamps" `Quick
      test_engine_schedule_in_past_clamps;
    Alcotest.test_case "engine negative delay clamps" `Quick test_engine_negative_after_clamps;
    Alcotest.test_case "rng copy" `Quick test_rng_copy_diverges_from_original;
    Alcotest.test_case "rng pick" `Quick test_rng_pick_and_empty;
    Alcotest.test_case "topology invalid args" `Quick test_topology_invalid_args;
    Alcotest.test_case "topology custom 3-DC" `Quick test_topology_custom_three_dc;
    Alcotest.test_case "value pp & key containers" `Quick test_value_pp_and_key_containers;
    Alcotest.test_case "update predicates & pp" `Quick test_update_predicates_and_pp;
    Alcotest.test_case "harness round-robin" `Quick test_harness_of_mdcc_round_robin;
    Alcotest.test_case "session watermark initial" `Quick test_session_watermark_initial;
  ]
