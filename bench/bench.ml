(* The benchmark harness: five sections, one schema (mdcc.bench.v2), one
   kind-aware regression check.

     dune exec bench/bench.exe                             -- every section
     dune exec bench/bench.exe -- --only events,micro      -- selected sections
     dune exec bench/bench.exe -- --check BENCH.json --out BENCH.fresh.json

   Sections (each a fixed workload; scales are constants, not flags):
   - events: event-queue push/pop and cancel churn, Engine.run dispatch
     and Network.send ping-pong, 300k ops each — the DES hot loop;
   - micro:  five protocol-critical cases (event heap, store delta apply,
     rstate demarcation, one dangling-transaction scan, one message through
     the per-node byte meter);
   - sweep:  the full chaos scenario matrix x 50 seeds, sequentially and on
     4 domains, asserting byte-identical output, then both legs again
     under the per-phase profiler;
   - wire:   a self-hosted wire server (5 DCs x 4 partitions) under 4
     connections x depth 8 x 2000 pipelined ops, with a readback pass;
   - shard:  TPC-W over 2 -> 4 -> 8 partitions on an 8000-item keyspace.

   Exit status: 0 ok; 1 wire protocol error or readback mismatch; 2 the
   parallel sweep's output diverged from the sequential one; 3 --check
   found a regression (or could not read the baseline).  Figure
   reproduction lives in [experiments_cli run]. *)

module Harness = Bench_harness.Harness
module Json = Mdcc_obs.Json
module Prof = Mdcc_obs.Prof
module Rng = Mdcc_util.Rng

let timed = Harness.timed

let section = Harness.section

(* ---------------- events: the DES hot loop ---------------- *)

module Event_queue = Mdcc_sim.Event_queue
module Engine = Mdcc_sim.Engine
module Network = Mdcc_sim.Network
module Topology = Mdcc_sim.Topology

let events_ops = 300_000

(* push N events at pseudo-random times, pop them all *)
let queue_push_pop () =
  let q = Event_queue.create () in
  let rng = Rng.create 42 in
  let n = events_ops / 2 in
  let ats = Array.init n (fun _ -> Rng.float rng 1_000_000.0) in
  let now = { Event_queue.f = 0.0 } in
  let (), t =
    timed (fun () ->
        for i = 0 to n - 1 do
          ignore (Event_queue.push q ~at:ats.(i) ~seq:i ignore)
        done;
        for _ = 1 to n do
          ignore (Event_queue.pop_before q ~limit:Float.infinity ~now)
        done)
  in
  section "events.queue_push_pop" ~ops:events_ops t

(* push N, cancel every other handle (the compaction path), drain the
   rest: N + N/2 + N/2 ~= ops individual operations *)
let queue_cancel () =
  let q = Event_queue.create () in
  let rng = Rng.create 43 in
  let n = events_ops / 3 in
  let ats = Array.init n (fun _ -> Rng.float rng 1_000_000.0) in
  let now = { Event_queue.f = 0.0 } in
  let (), t =
    timed (fun () ->
        let handles = Array.init n (fun i -> Event_queue.push q ~at:ats.(i) ~seq:i ignore) in
        for i = 0 to n - 1 do
          if i land 1 = 0 then Event_queue.cancel q handles.(i)
        done;
        while not (Event_queue.is_dummy (Event_queue.pop_before q ~limit:Float.infinity ~now)) do
          ()
        done)
  in
  section "events.queue_cancel" ~ops:events_ops t

(* 64 self-rescheduling timers executing N events through Engine.run *)
let engine_dispatch () =
  let engine = Engine.create ~seed:7 in
  let timers = 64 in
  let fired = ref 0 in
  let rec tick () =
    incr fired;
    if !fired + timers <= events_ops then ignore (Engine.schedule engine ~after:1.0 tick)
  in
  for _ = 1 to timers do
    ignore (Engine.schedule engine ~after:1.0 tick)
  done;
  let (), t = timed (fun () -> Engine.run engine) in
  section "events.engine_dispatch" ~ops:events_ops t

type Network.payload += Ping

(* Ping-pong over a 2-DC topology: every delivery sends one message back
   until the budget is spent — send + schedule + deliver end to end. *)
let network_send () =
  let engine = Engine.create ~seed:11 in
  let topo =
    Topology.make ~dc_names:[| "a"; "b" |]
      ~rtt:[| [| 0.0; 20.0 |]; [| 20.0; 0.0 |] |]
      ~nodes_per_dc:2 ()
  in
  let net = Network.create engine topo () in
  let delivered = ref 0 in
  for node = 0 to 3 do
    Network.register net node (fun ~src payload ->
        incr delivered;
        if !delivered < events_ops then Network.send net ~src:node ~dst:src payload)
  done;
  (* 8 concurrent ping-pong chains keep the heap non-trivial. *)
  let (), t =
    timed (fun () ->
        for i = 0 to 7 do
          Network.send net ~src:(i land 3) ~dst:(i land 3 lxor 2) Ping
        done;
        Engine.run engine)
  in
  section "events.network_send" ~ops:events_ops t

let events () = [ queue_push_pop (); queue_cancel (); engine_dispatch (); network_send () ]

(* ---------------- micro: protocol-critical data structures ---------------- *)

module Storage = Mdcc_storage

let micro_iters = 50_000

let micro_case name f =
  let (), t =
    timed (fun () ->
        for _ = 1 to micro_iters do
          f ()
        done)
  in
  section ("micro." ^ name) ~ops:micro_iters t

(* push 64 events, drain through the engine's dispatch primitive *)
let event_heap () =
  let q = Event_queue.create () in
  for i = 1 to 64 do
    ignore (Event_queue.push q ~at:(Float.of_int ((i * 7919) mod 101)) ~seq:i ignore)
  done;
  let now = { Event_queue.f = 0.0 } in
  while not (Event_queue.is_dummy (Event_queue.pop_before q ~limit:Float.infinity ~now)) do
    ()
  done

let store_apply =
  let schema = Storage.Schema.create [ { Storage.Schema.name = "t"; bounds = []; master_dc = 0 } ] in
  let key = Storage.Key.make ~table:"t" ~id:"k" in
  fun () ->
    let store = Storage.Store.create schema in
    Storage.Store.apply store key (Storage.Update.Insert Storage.Value.empty);
    for _ = 1 to 16 do
      Storage.Store.apply store key (Storage.Update.Delta [ ("x", 1) ])
    done

let demarcation =
  let bounds = [ { Storage.Schema.attr = "stock"; lower = Some 0; upper = None } ] in
  let valuation =
    {
      Mdcc_core.Rstate.value = Storage.Value.of_list [ ("stock", Storage.Value.Int 50) ];
      version = 1;
      exists = true;
    }
  in
  fun () ->
    ignore
      (Mdcc_core.Rstate.evaluate ~bounds ~demarcation:(`Quorum (5, 4)) valuation ~accepted:[]
         (Storage.Update.Delta [ ("stock", -3) ]))

(* One storage node holding 10,000 settled records and a single pending
   option whose app-server died: a scan's cost must follow the one option,
   not the records. *)
let dangling_scan () =
  let module Cluster = Mdcc_core.Cluster in
  let module Coordinator = Mdcc_core.Coordinator in
  let module Storage_node = Mdcc_core.Storage_node in
  let schema =
    Storage.Schema.create [ { Storage.Schema.name = "t"; bounds = []; master_dc = 0 } ]
  in
  let key i = Storage.Key.make ~table:"t" ~id:(string_of_int i) in
  let engine = Engine.create ~seed:5 in
  let cluster =
    Cluster.create ~engine ~spec:Cluster.Spec.default
      ~config:(Mdcc_core.Config.make ~replication:5 ())
      ~schema ()
  in
  Cluster.load cluster (List.init 10_000 (fun i -> (key i, Storage.Value.empty)));
  (* The anti-entropy sweep touches, and so settles, every loaded record. *)
  Cluster.sync_all cluster;
  Engine.run engine;
  let coordinator = Cluster.coordinator cluster ~dc:0 ~rank:0 in
  Coordinator.submit coordinator
    (Storage.Txn.make ~id:"dangling" ~updates:[ (key 0, Storage.Update.Delta [ ("x", 1) ]) ])
    ignore;
  ignore
    (Engine.schedule engine ~after:20.0 (fun () ->
         Network.fail_node (Cluster.network cluster) (Coordinator.node_id coordinator)));
  (* Short of the transaction timeout: every scan finds the option fresh. *)
  Engine.run ~until:(Engine.now engine +. 500.0) engine;
  let node = List.hd (Cluster.storage_nodes cluster) in
  assert (Storage_node.pending_options node = 1);
  fun () -> Storage_node.scan_dangling node

(* One message through the per-node byte meter, after warm-up: its
   handles are resolved, so a send plus a delivery allocates nothing. *)
let meter () =
  let obs = Mdcc_obs.Obs.create () in
  let send = Mdcc_core.Deployment.meter_send obs in
  let deliver = Mdcc_core.Deployment.meter_deliver obs in
  let message () =
    send ~src:3 ~dst:7 ~bytes:64;
    deliver ~src:3 ~dst:7 ~bytes:64
  in
  message ();
  message

let micro () =
  [
    micro_case "event_heap" event_heap;
    micro_case "store_apply" store_apply;
    micro_case "rstate_demarcation" demarcation;
    micro_case "dangling_scan" (dangling_scan ());
    micro_case "meter" (meter ());
  ]

(* ---------------- sweep: the parallel chaos sweep ---------------- *)

module Sweep = Mdcc_chaos.Sweep
module Runner = Mdcc_chaos.Runner

let sweep_seeds = 50

let sweep_jobs = 4

(* One canonical string for a whole sweep: every per-run report plus the
   full obs export.  Byte equality of this string is the contract. *)
let render reports =
  String.concat "\n" (List.map Runner.report_to_json reports)
  ^ "\n"
  ^ Json.to_string (Sweep.obs_doc reports)

(* A profiled leg: the standard record plus attribution and, per phase,
   self time and words per call.  The per-phase numbers are [Info]: they
   feed the printed per-phase delta, not the gate. *)
let profiled name ~jobs specs =
  let (_, snap), t = timed (fun () -> Sweep.run_profiled ~jobs specs) in
  let phases =
    List.concat_map
      (fun ph ->
        [
          (ph.Prof.ph_path ^ ".self_ms", Harness.Info, ph.Prof.ph_self_ms);
          ( ph.Prof.ph_path ^ ".minor_words_per_call",
            Harness.Info,
            ph.Prof.ph_minor_words /. Float.of_int (max 1 ph.Prof.ph_count) );
        ])
      snap.Prof.sn_phases
  in
  let attributed = Prof.attributed_ms snap /. (t.Harness.wall_s *. 1000.0) in
  section name ~jobs ~ops:(List.length specs) t
    ~extra:(("attributed_fraction", Harness.Info, attributed) :: phases)

let sweep ~fail =
  let specs = Sweep.specs ~seeds:sweep_seeds ~scenarios:Mdcc_chaos.Nemesis.matrix () in
  let runs = List.length specs in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "bench: sweep, %d runs, sequential and jobs=%d on %d cores\n%!" runs sweep_jobs
    cores;
  if cores < sweep_jobs then
    Printf.printf
      "  WARNING: %d cores < %d jobs — the parallel leg will time-slice; speedup rules are \
       skipped\n%!"
      cores sweep_jobs;
  let seq_reports, seq = timed (fun () -> Sweep.run ~jobs:1 specs) in
  let par_reports, par = timed (fun () -> Sweep.run ~jobs:sweep_jobs specs) in
  if String.equal (render seq_reports) (render par_reports) then
    Printf.printf "  output: byte-identical across modes\n%!"
  else fail 2 "parallel sweep output differs from sequential (determinism contract broken)";
  let events = List.fold_left (fun acc r -> acc + r.Runner.r_events) 0 seq_reports in
  let events_per_s (t : Harness.span) = Float.of_int events /. t.wall_s in
  let speedup = seq.wall_s /. par.wall_s in
  [
    section "sweep.sequential" ~ops:runs seq
      ~extra:
        [
          ("events_per_run", Harness.Det, Float.of_int events /. Float.of_int runs);
          ("events_per_s", Harness.Info, events_per_s seq);
        ];
    section "sweep.parallel" ~jobs:sweep_jobs ~ops:runs par
      ~extra:[ ("events_per_s", Harness.Info, events_per_s par); ("speedup", Harness.Ratio, speedup) ];
    profiled "sweep.profiled_sequential" ~jobs:1 specs;
    profiled "sweep.profiled_parallel" ~jobs:sweep_jobs specs;
  ]

(* ---------------- wire: the socket server under pipelined load ---------------- *)

module Server = Mdcc_wire.Server
module Loop = Mdcc_runtime_unix.Loop

let wire_nodes = 5

let wire_partitions = 4

let wire_conns = 4

let wire_depth = 8

let wire_ops = 2000

let wire_keys = 640

let wire_value_bytes = 64

type conn_result = {
  latencies : float array;  (* seconds per request, completion order *)
  protocol_errors : int;
  consistency_errors : int;
  requests : int;
}

let read_line_cr ic =
  let line = input_line ic in
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

let is_protocol_error line =
  List.exists
    (fun prefix -> String.starts_with ~prefix line)
    [ "ERROR"; "CLIENT_ERROR"; "SERVER_ERROR" ]

(* Read one reply to a [get]/[gets]: VALUE blocks then END, or an error
   line.  Returns the data of the first VALUE (None on miss/error). *)
let read_get_reply ic errors =
  let rec go first =
    let line = read_line_cr ic in
    if String.equal line "END" then first
    else if is_protocol_error line then begin
      incr errors;
      first
    end
    else
      match String.split_on_char ' ' line with
      | "VALUE" :: _key :: _flags :: bytes :: _ ->
        let data = really_input_string ic (int_of_string bytes) in
        let _crlf = really_input_string ic 2 in
        go (if first = None then Some data else first)
      | _ ->
        incr errors;
        go first
  in
  go None

type op = Op_set of { key : string; data : string } | Op_get of { key : string }

(* One client connection keeping [wire_depth] requests in flight,
   alternating set and get over a private key slice, then reading back
   every key it wrote through the same session: with read-your-writes a
   mismatch is a server bug, not a benchmark artifact. *)
let run_conn ~port conn_id =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
  (try Unix.setsockopt fd TCP_NODELAY true with Unix.Unix_error _ -> ());
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let key i = Printf.sprintf "c%d:k%d" conn_id (i mod wire_keys) in
  let value i =
    let stamp = Printf.sprintf "v%d.%d/" conn_id i in
    stamp ^ String.make (max 0 (wire_value_bytes - String.length stamp)) '.'
  in
  let op_of i = if i mod 2 = 0 then Op_set { key = key i; data = value i } else Op_get { key = key i } in
  let last_write = Hashtbl.create 64 in
  let latencies = Array.make wire_ops 0.0 in
  let errors = ref 0 in
  let inflight = Queue.create () in
  let completed = ref 0 in
  let send i =
    let op = op_of i in
    (match op with
    | Op_set { key; data } -> Printf.fprintf oc "set %s 0 0 %d\r\n%s\r\n" key (String.length data) data
    | Op_get { key } -> Printf.fprintf oc "get %s\r\n" key);
    flush oc;
    Queue.add (op, Unix.gettimeofday ()) inflight
  in
  let complete () =
    let op, t0 = Queue.pop inflight in
    (match op with
    | Op_set { key; data } ->
      if not (String.equal (read_line_cr ic) "STORED") then incr errors;
      Hashtbl.replace last_write key data
    | Op_get _ -> ignore (read_get_reply ic errors));
    latencies.(!completed) <- Unix.gettimeofday () -. t0;
    incr completed
  in
  let sent = ref 0 in
  while !completed < wire_ops do
    while !sent < wire_ops && Queue.length inflight < wire_depth do
      send !sent;
      incr sent
    done;
    complete ()
  done;
  let written = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) last_write []) in
  let consistency = ref 0 in
  List.iter
    (fun (k, expect) ->
      Printf.fprintf oc "gets %s\r\n" k;
      flush oc;
      match read_get_reply ic errors with
      | Some data when String.equal data expect -> ()
      | Some _ | None -> incr consistency)
    written;
  output_string oc "quit\r\n";
  (try flush oc with Sys_error _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  {
    latencies;
    protocol_errors = !errors;
    consistency_errors = !consistency;
    requests = wire_ops + List.length written;
  }

let wire ~fail =
  let srv = Server.create ~nodes:wire_nodes ~partitions:wire_partitions ~port:0 () in
  let server = Domain.spawn (fun () -> Server.run srv) in
  let port = Server.port srv in
  Printf.printf "bench: wire, %d conns x depth %d x %d ops -> 127.0.0.1:%d (%d nodes x %d partitions)\n%!"
    wire_conns wire_depth wire_ops port wire_nodes wire_partitions;
  let results, t =
    timed (fun () ->
        List.init wire_conns (fun i -> Domain.spawn (fun () -> run_conn ~port i))
        |> List.map Domain.join)
  in
  Loop.post (Server.loop srv) (fun () ->
      Server.shutdown srv ~on_done:(fun () -> Loop.request_stop (Server.loop srv)));
  Domain.join server;
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  let protocol_errors = sum (fun r -> r.protocol_errors) in
  let consistency_errors = sum (fun r -> r.consistency_errors) in
  Printf.printf "  protocol errors: %d, readback mismatches: %d\n%!" protocol_errors
    consistency_errors;
  if protocol_errors > 0 || consistency_errors > 0 then
    fail 1 "wire protocol errors or readback mismatches observed";
  let latencies = Array.concat (List.map (fun r -> r.latencies) results) in
  Array.sort Float.compare latencies;
  [ section "wire" ~jobs:wire_conns ~ops:(sum (fun r -> r.requests)) ~latencies t ]

(* ---------------- shard: partition scale-out ---------------- *)

module Setup = Mdcc_workload.Setup
module Tpcw = Mdcc_workload.Tpcw
module Metrics = Mdcc_workload.Metrics

let shard_seed = 7

let shard_items = 8_000

(* (partitions, closed-loop clients): clients grow with the deployment so
   per-partition offered load stays constant, as in Figure 4. *)
let shard_series = [ (2, 50); (4, 100); (8, 200) ]

(* Everything but wall time is virtual-time arithmetic over a seeded
   simulation, hence deterministic. *)
let shard_point (partitions, clients) =
  let duration = 8_000.0 in
  let metrics, t =
    timed (fun () ->
        let p = { Tpcw.default with items = shard_items; commutative = true } in
        let rows = Tpcw.rows p ~rng:(Rng.create ((shard_seed * 17) + 3)) in
        let harness =
          Setup.make Setup.Mdcc ~seed:shard_seed ~schema:Tpcw.schema ~partitions
            ~obs:(Mdcc_obs.Obs.create ()) ~rows ()
        in
        let clients_per_dc = Array.init 5 (fun dc -> (clients / 5) + if dc < clients mod 5 then 1 else 0) in
        Mdcc_workload.Runner.run harness (Tpcw.generator p)
          { clients_per_dc; warmup = 2_000.0; duration; drain = 20_000.0; seed = shard_seed })
  in
  let p50, p99 =
    match Metrics.summary metrics with
    | Some s -> (s.Mdcc_util.Stats.p50, s.Mdcc_util.Stats.p99)
    | None -> (0.0, 0.0)
  in
  section
    (Printf.sprintf "shard.p%d" partitions)
    ~ops:(Metrics.commit_count metrics) t
    ~extra:
      [
        ("txns_per_s", Harness.Det, Metrics.throughput metrics ~duration);
        ("sim_p50_ms", Harness.Det, p50);
        ("sim_p99_ms", Harness.Det, p99);
        ("aborted", Harness.Det, Float.of_int (Metrics.abort_count metrics));
      ]

let shard () =
  Printf.printf "bench: shard, TPC-W over %d items at %s partitions\n%!" shard_items
    (String.concat "/" (List.map (fun (p, _) -> string_of_int p) shard_series));
  List.map shard_point shard_series

(* ---------------- main ---------------- *)

let groups = [ "events"; "micro"; "sweep"; "wire"; "shard" ]

let run_group ~fail = function
  | "events" -> events ()
  | "micro" -> micro ()
  | "sweep" -> sweep ~fail
  | "wire" -> wire ~fail
  | _ -> shard ()

let print_metrics s =
  List.iter
    (fun (name, kind, v) ->
      Printf.printf "  %-60s %12.6g  %s\n" (s.Harness.name ^ " " ^ name) v
        (List.assoc kind Harness.kind_names))
    s.Harness.metrics

let load_baseline path =
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Error msg -> Error msg
  | Ok doc -> Harness.of_json doc
  | exception Sys_error msg -> Error msg

let main only out check =
  let selected = if only = [] then groups else List.filter (fun g -> List.mem g only) groups in
  let hard = ref None in
  let fail code msg =
    Printf.eprintf "bench: FAILED: %s\n%!" msg;
    if !hard = None then hard := Some code
  in
  let sections = List.concat_map (run_group ~fail) selected in
  Option.iter
    (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (Json.to_string (Harness.to_json sections));
          output_char oc '\n');
      Printf.printf "bench: written %s\n" path)
    out;
  let check_ok =
    match check with
    | None ->
      List.iter print_metrics sections;
      true
    | Some path -> (
      match load_baseline path with
      | Error msg ->
        Printf.eprintf "bench: cannot read baseline %s: %s\n" path msg;
        false
      | Ok baseline ->
        let baseline = List.filter (fun s -> List.mem (Harness.group s) selected) baseline in
        let lines = Harness.compare ~baseline ~current:sections in
        List.iter (fun l -> print_endline ("  " ^ l.Harness.text)) lines;
        let failures = List.length (List.filter (fun l -> not l.Harness.ok) lines) in
        Printf.printf "bench: check against %s: %d failure(s)\n" path failures;
        failures = 0)
  in
  match !hard with Some code -> code | None -> if check_ok then 0 else 3

open Cmdliner

let only_arg =
  Arg.(
    value
    & opt (list (enum (List.map (fun g -> (g, g)) groups))) []
    & info [ "only" ] ~docv:"SECTIONS"
        ~doc:"Run only these sections (comma-separated: events, micro, sweep, wire, shard).")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE" ~doc:"Write the measurement as JSON (schema mdcc.bench.v2).")

let check_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "check" ] ~docv:"BASELINE"
        ~doc:"Compare against a baseline by metric kind; exit 3 on any failure.")

let () =
  let doc = "MDCC benchmarks: DES hot loop, micro cases, parallel sweep, wire server, sharding" in
  exit (Cmd.eval' (Cmd.v (Cmd.info "bench" ~doc) Term.(const main $ only_arg $ out_arg $ check_arg)))
