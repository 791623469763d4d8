(* wire-read and wire-write: the memcached-protocol server over TCP.

   The server runs the full MDCC deployment in process — 5 data centers x
   4 hash partitions = 20 storage nodes plus one coordinator — on its own
   domain.  Node-to-node messages are in-process run-queue deliveries with
   zero injected delay, so every latency here is processor time (the
   server's and the load generator's), never simulated wide-area time.

   wire-read is an open loop at a fixed offered rate: ~90% [get] and ~10%
   [set] uniform over a large preloaded keyspace, so each record sees few
   writes and Paxos does little; latency runs from each request's due
   time.  wire-write is a closed loop at fixed pipeline depth: ~80% writes
   ([set], [gets]+[cas], 3-key [txn]/[commit]) and ~20% [get] over a small
   Zipf-skewed keyspace both connections share, so records pile up
   committed writes and the connections conflict. *)

open Mdcc_storage
module Rng = Mdcc_util.Rng
module Server = Mdcc_wire.Server
module Handler = Mdcc_wire.Handler
module Backend = Mdcc_wire.Backend
module Parser = Mdcc_wire.Parser
module Protocol = Mdcc_wire.Protocol
module Loop = Mdcc_runtime_unix.Loop
module Prof = Mdcc_obs.Prof
module Obs = Mdcc_obs.Obs
module Registry = Mdcc_obs.Registry
module Core = Mdcc_core
module Fvec = Stat.Fvec

type kind = Read | Write

let nodes = 5
let partitions = 4

(* At most one client connection per core, and two at most: the workload
   is defined on two connections. *)
let conns = max 1 (min 2 (Domain.recommended_domain_count ()))

let value_bytes = 32
let read_keys = 4096
let read_rate = 6000.0  (* offered requests per second, wire-read *)

(* A run is a series of trials, each on a fresh server with the same
   inputs; a trial is the unit of work that defines the workload. *)
let trial_seconds = 10.0 /. 3.0
let read_requests = int_of_float (read_rate *. trial_seconds)
let write_keys = 1000
let write_zipf_s = 0.9
let write_depth = 8  (* requests in flight per connection, wire-write *)
(* A wire-write trial runs a fixed number of operations rather than for a
   fixed time: per-record state grows with every committed write, so the
   work a trial does must not depend on how fast the build under test is. *)
let write_ops = 16000
let preload_block = 16
let max_retries = 100

let keys_of = function Read -> read_keys | Write -> write_keys

let pad s =
  if String.length s >= value_bytes then s else s ^ String.make (value_bytes - String.length s) '.'

let preload_value k = pad (Printf.sprintf "p%d" k)

(* ---------------- deployments ---------------- *)

type deployment = {
  d_port : int;
  d_loop : Loop.t;
  d_obs : Obs.t;
  d_tracer : Tracer.t option;
  d_stop : unit -> unit;
}

let start_untraced () =
  let srv = Server.create ~nodes ~partitions ~port:0 () in
  let lp = Server.loop srv in
  let d = Domain.spawn (fun () -> Server.run srv) in
  {
    d_port = Server.port srv;
    d_loop = lp;
    d_obs = Server.obs srv;
    d_tracer = None;
    d_stop =
      (fun () ->
        Loop.post lp (fun () -> Server.shutdown srv ~on_done:(fun () -> Loop.request_stop lp));
        Domain.join d);
  }

(* The traced deployment: what [Server.create] assembles, built from the
   same public constructors over a {!Tracer} runtime, and run under
   [Prof.with_task] so the loop's own phase spans are recorded on the
   server domain. *)
let start_traced () =
  let storage_n = nodes * partitions in
  let lp = Loop.create ~seed:1 ~dc_of:(fun id -> if id < storage_n then id / partitions else 0) () in
  let tracer = Tracer.create ~role_of:(fun id -> if id < storage_n then "storage" else "coord") in
  let runtime = Tracer.wrap tracer (Loop.runtime lp) in
  let config = Core.Config.make ~replication:nodes () in
  let table = "kv" in
  let schema = Schema.create [ { name = table; bounds = []; master_dc = 0 } ] in
  let observ = Obs.create () in
  let ctx = Core.Ctx.make ~obs:observ ~local_nodes:(List.init partitions Fun.id) () in
  let partition_of key = Key.hash key mod partitions in
  let replicas key =
    let p = partition_of key in
    List.init nodes (fun dc -> (dc * partitions) + p)
  in
  let master_of key =
    let master_dc = Hashtbl.hash (Key.to_string key ^ "#master") mod nodes in
    (master_dc * partitions) + partition_of key
  in
  let storage =
    Array.init storage_n (fun i ->
        Core.Storage_node.create ~runtime ~config ~node_id:i ~schema ~replicas ~master_of ~ctx ())
  in
  Array.iter Core.Storage_node.start_maintenance storage;
  let snapshot =
    {
      Core.Coordinator.snap_read =
        (fun key -> Store.read (Core.Storage_node.store storage.(partition_of key)) key);
      snap_scan =
        (fun ~table ->
          let rows = ref [] in
          for p = partitions - 1 downto 0 do
            Store.iter (Core.Storage_node.store storage.(p)) (fun key row ->
                if row.Store.exists && String.equal key.Key.table table then
                  rows := (key, row.Store.value, row.Store.version) :: !rows)
          done;
          !rows);
    }
  in
  let coord =
    Core.Coordinator.create ~runtime ~config ~node_id:storage_n ~replicas ~master_of ~snapshot
      ~ctx ()
  in
  Loop.set_meter lp
    {
      Loop.w_size = Core.Messages.size_of;
      w_on_send =
        (fun ~src ~dst:_ ~bytes ->
          Obs.incr observ (Printf.sprintf "net.sent.node%02d" src);
          Obs.incr observ ~by:bytes (Printf.sprintf "net.sent_bytes.node%02d" src));
      w_on_deliver =
        (fun ~src:_ ~dst ~bytes ->
          Obs.incr observ (Printf.sprintf "net.recv.node%02d" dst);
          Obs.incr observ ~by:bytes (Printf.sprintf "net.recv_bytes.node%02d" dst));
    };
  let txid = ref 0 in
  let next_txid () =
    incr txid;
    Printf.sprintf "wire%06d" !txid
  in
  let port =
    Loop.listen lp ~port:0 (fun conn ->
        let session = Core.Session.create coord in
        let backend =
          Backend.of_session ~table
            ~partition_of:(fun id -> partition_of (Key.make ~table ~id))
            ~obs:observ ~next_txid session
        in
        let handler =
          Handler.create ~backend
            ~write:(fun s -> Loop.write conn s)
            ~close:(fun () -> Loop.close conn)
            ~obs:observ ()
        in
        Obs.incr observ "wire.connections";
        { Loop.on_data = (fun buf off len -> Handler.on_data handler buf off len);
          on_close = ignore })
  in
  let rec gauges () =
    Obs.set_gauge observ "wire.curr_connections" (Loop.open_conns lp);
    Obs.set_gauge observ "coord.inflight" (Core.Coordinator.inflight coord);
    ignore (Core.Runtime.set_timer runtime ~after:250.0 gauges)
  in
  Core.Runtime.spawn runtime gauges;
  let d = Domain.spawn (fun () -> ignore (Prof.with_task (fun () -> Loop.run lp))) in
  {
    d_port = port;
    d_loop = lp;
    d_obs = observ;
    d_tracer = Some tracer;
    d_stop =
      (fun () ->
        Loop.post lp (fun () -> Loop.request_stop lp);
        Domain.join d);
  }

(* Run [f] on the server's loop domain and wait for its result. *)
let on_loop lp f =
  let cell = Atomic.make None in
  Loop.post lp (fun () -> Atomic.set cell (Some (f ())));
  let rec wait () =
    match Atomic.get cell with
    | Some v -> v
    | None ->
      Unix.sleepf 0.0005;
      wait ()
  in
  wait ()

(* Server-side state at one instant, captured on the loop domain. *)
type snap = {
  s_prof : Prof.snapshot;
  s_buckets : (string * (int * float * float)) list;
  s_counters : (string * int) list;
}

let take d =
  on_loop d.d_loop (fun () ->
      {
        s_prof =
          (match d.d_tracer with
          | Some _ -> Prof.capture (Prof.ambient ())
          | None -> Prof.empty_snapshot);
        s_buckets =
          (match d.d_tracer with
          | Some tr ->
            List.map (fun (n, a) -> (n, (a.Tracer.count, a.Tracer.ns, a.Tracer.words))) (Tracer.buckets tr)
          | None -> []);
        s_counters = Registry.counter_bindings (Obs.registry d.d_obs);
      })

(* ---------------- run state ---------------- *)

type state = {
  reads : Fvec.t;  (* latency ms *)
  writes : Fvec.t;
  late : Fvec.t;  (* open-loop lateness ms *)
  mutable attempted : int;  (* client requests whose reply arrived *)
  mutable failed : int;
  mutable retries : int;  (* EXISTS / ABORTED answers that were retried *)
  mutable write_ops : int;  (* client write requests: set, cas, txn blocks *)
  mutable problems : string list;
  mutable window_counts : int array;  (* completed ops per wall second *)
  mutable start_ms : float;
  acked : (int * string, unit) Hashtbl.t;  (* every acknowledged (key, value) *)
  last_ack : string array array;  (* per connection, per key: last acknowledged value *)
  writers : int array;  (* per key: bitmask of connections with an acked write *)
}

let new_state kind =
  let keys = keys_of kind in
  {
    reads = Fvec.create ();
    writes = Fvec.create ();
    late = Fvec.create ();
    attempted = 0;
    failed = 0;
    retries = 0;
    write_ops = 0;
    problems = [];
    window_counts = Array.make 64 0;
    start_ms = 0.0;
    acked = Hashtbl.create 4096;
    last_ack = Array.init conns (fun _ -> Array.make keys "");
    writers = Array.make keys 0;
  }

let fail st what =
  st.failed <- st.failed + 1;
  if List.length st.problems < 10 then st.problems <- what :: st.problems

let ack st ci key value =
  Hashtbl.replace st.acked (key, value) ();
  st.last_ack.(ci).(key) <- value;
  st.writers.(key) <- st.writers.(key) lor (1 lsl ci)

let record v ~sent ~completed = Fvec.push v (completed -. sent)

let completed st t =
  st.attempted <- st.attempted + 1;
  let w = int_of_float ((t -. st.start_ms) /. 1000.0) in
  if w >= 0 then begin
    if w >= Array.length st.window_counts then begin
      let bigger = Array.make (2 * (w + 1)) 0 in
      Array.blit st.window_counts 0 bigger 0 (Array.length st.window_counts);
      st.window_counts <- bigger
    end;
    st.window_counts.(w) <- st.window_counts.(w) + 1
  end

let reply_text = function
  | Loadgen.Line l -> l
  | Loadgen.Bad l -> l
  | Loadgen.Hits hs -> Printf.sprintf "%d hits" (List.length hs)

(* ---------------- closed loop ---------------- *)

(* [depth] slots per connection; [next ci k] starts one operation on
   connection [ci] and calls [k] when it is complete, or returns [false]
   when there is no more work.  Polls until every slot has finished. *)
let closed_loop lg ~depth ~deadline_ms ~next =
  let active = ref 0 in
  Array.iteri
    (fun ci _ ->
      for _ = 1 to depth do
        incr active;
        let rec go () = if not (next ci go) then decr active in
        go ()
      done)
    lg.Loadgen.conns;
  while !active > 0 && Loadgen.now_ms () < deadline_ms do
    Loadgen.poll lg ~timeout_ms:5.0
  done;
  !active = 0

(* Preload every key with its initial value, in [txn] blocks; connection
   [c] loads the keys congruent to [c] modulo [conns]. *)
let preload lg ~keys =
  let blocks =
    Array.init conns (fun ci ->
        let mine = List.filter (fun k -> k mod conns = ci) (List.init keys Fun.id) in
        let rec chunk acc cur n = function
          | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
          | k :: rest ->
            if n = preload_block then chunk (List.rev cur :: acc) [ k ] 1 rest
            else chunk acc (k :: cur) (n + 1) rest
        in
        ref (chunk [] [] 0 mine))
  in
  let errors = ref 0 in
  let next ci k =
    match !(blocks.(ci)) with
    | [] -> false
    | block :: rest ->
      blocks.(ci) := rest;
      let req =
        Loadgen.txn_req (List.map (fun key -> (Keygen.key_name key, preload_value key)) block)
      in
      let rec attempt tries =
        Loadgen.send lg.Loadgen.conns.(ci) ~expect:(Loadgen.Txn_block (List.length block)) req
          (fun reply _ ->
            match reply with
            | Loadgen.Line "COMMITTED" -> k ()
            | Loadgen.Line _ when tries < max_retries -> attempt (tries + 1)
            | _ ->
              incr errors;
              k ())
      in
      attempt 0;
      true
  in
  let finished = closed_loop lg ~depth:4 ~deadline_ms:(Loadgen.now_ms () +. 120_000.0) ~next in
  if (not finished) || !errors > 0 then failwith "wire preload failed"

(* Read back keys through [gets] on every connection; [expect ci key data]
   says whether connection [ci] may observe [data] for [key]. *)
let readback st lg ~keys ~expect =
  Unix.sleepf 0.05;
  let todo = Array.init conns (fun _ -> ref keys) in
  let next ci k =
    match !(todo.(ci)) with
    | [] -> false
    | key :: rest ->
      todo.(ci) := rest;
      Loadgen.send lg.Loadgen.conns.(ci) ~expect:Loadgen.Values
        (Loadgen.gets_req (Keygen.key_name key))
        (fun reply _ ->
          (match reply with
          | Loadgen.Hits [ h ] when expect ci key h.Loadgen.h_data -> ()
          | r ->
            fail st
              (Printf.sprintf "readback %s on conn %d: %s" (Keygen.key_name key) ci
                 (match r with Loadgen.Hits [ h ] -> h.Loadgen.h_data | r -> reply_text r)));
          k ());
      true
  in
  if not (closed_loop lg ~depth:16 ~deadline_ms:(Loadgen.now_ms () +. 60_000.0) ~next) then
    fail st "readback did not finish"

(* ---------------- wire-read: open loop ---------------- *)

type read_input = { ri_ops : (int * Keygen.op) array; ri_reqs : string array }

let read_input rng =
  let ops = Keygen.read_mix rng ~keys:read_keys ~conns ~count:read_requests in
  let reqs =
    Array.mapi
      (fun i (_, op) ->
        match op with
        | Keygen.Set key -> Loadgen.set_req (Keygen.key_name key) (pad (Printf.sprintf "w%d" i))
        | Keygen.Get key -> Loadgen.get_req (Keygen.key_name key)
        | Keygen.Cas _ | Keygen.Txn _ -> invalid_arg "read mix")
      ops
  in
  { ri_ops = ops; ri_reqs = reqs }

let run_read st lg input =
  let n = Array.length input.ri_ops in
  let start = Loadgen.now_ms () +. 1.0 in
  st.start_ms <- start;
  let i = ref 0 in
  while !i < n do
    let now = Loadgen.now_ms () in
    let due_now = min n (Keygen.due_count ~start_ms:start ~rate:read_rate ~now_ms:now) in
    while !i < due_now do
      let idx = !i in
      let due = Keygen.due_ms ~start_ms:start ~rate:read_rate idx in
      Fvec.push st.late (Keygen.lateness_ms ~due ~sent:now);
      let ci, op = input.ri_ops.(idx) in
      let c = lg.Loadgen.conns.(ci) in
      (match op with
      | Keygen.Get _ ->
        Loadgen.send c ~expect:Loadgen.Values input.ri_reqs.(idx) (fun reply t ->
            record st.reads ~sent:due ~completed:t;
            completed st t;
            match reply with
            | Loadgen.Hits [ _ ] -> ()
            | r -> fail st ("get: " ^ reply_text r))
      | Keygen.Set key ->
        st.write_ops <- st.write_ops + 1;
        Loadgen.send c ~expect:Loadgen.One_line input.ri_reqs.(idx) (fun reply t ->
            record st.writes ~sent:due ~completed:t;
            completed st t;
            match reply with
            | Loadgen.Line "STORED" -> ack st ci key (pad (Printf.sprintf "w%d" idx))
            | r -> fail st ("set: " ^ reply_text r))
      | Keygen.Cas _ | Keygen.Txn _ -> ());
      incr i
    done;
    let next_due =
      if !i < n then Keygen.due_ms ~start_ms:start ~rate:read_rate !i else Loadgen.now_ms ()
    in
    Loadgen.poll lg ~timeout_ms:(next_due -. Loadgen.now_ms ())
  done;
  if not (Loadgen.wait_all lg ~deadline_ms:(Loadgen.now_ms () +. 30_000.0)) then
    fail st "replies still outstanding 30 s after the last send";
  (Loadgen.now_ms () -. start) /. 1000.0

(* Every key written during the run must read back, on its only writer's
   connection, as that connection's last acknowledged write. *)
let check_read st lg =
  let keys = List.filter (fun k -> st.writers.(k) <> 0) (List.init read_keys Fun.id) in
  readback st lg ~keys ~expect:(fun ci key data ->
      st.writers.(key) land (1 lsl ci) = 0 || String.equal data st.last_ack.(ci).(key))

(* ---------------- wire-write: closed loop ---------------- *)

let write_input rng =
  let z = Keygen.zipf (Rng.split rng) ~n:write_keys ~s:write_zipf_s in
  let per_conn = write_ops / conns in
  Array.init conns (fun _ -> Keygen.write_mix z (Rng.split rng) ~count:per_conn)

let run_write st lg ops =
  let stamp = Array.make conns 0 in
  let fresh ci =
    stamp.(ci) <- stamp.(ci) + 1;
    pad (Printf.sprintf "c%d.%d" ci stamp.(ci))
  in
  let cursor = Array.make conns 0 in
  let start = Loadgen.now_ms () in
  st.start_ms <- start;
  let stop_at = start +. 60_000.0 in
  let next ci k =
    if cursor.(ci) >= Array.length ops.(ci) then false
    else if Loadgen.now_ms () >= stop_at then begin
      fail st "operations left unstarted after 60 s";
      false
    end
    else begin
      let op = ops.(ci).(cursor.(ci)) in
      cursor.(ci) <- cursor.(ci) + 1;
      let c = lg.Loadgen.conns.(ci) in
      let name = Keygen.key_name in
      (match op with
      | Keygen.Get key ->
        let t0 = Loadgen.now_ms () in
        Loadgen.send c ~expect:Loadgen.Values (Loadgen.get_req (name key)) (fun reply t ->
            record st.reads ~sent:t0 ~completed:t;
            completed st t;
            (match reply with Loadgen.Hits [ _ ] -> () | r -> fail st ("get: " ^ reply_text r));
            k ())
      | Keygen.Set key ->
        st.write_ops <- st.write_ops + 1;
        let v = fresh ci in
        let t0 = Loadgen.now_ms () in
        Loadgen.send c ~expect:Loadgen.One_line (Loadgen.set_req (name key) v) (fun reply t ->
            record st.writes ~sent:t0 ~completed:t;
            completed st t;
            (match reply with
            | Loadgen.Line "STORED" -> ack st ci key v
            | r -> fail st ("set: " ^ reply_text r));
            k ())
      | Keygen.Cas key ->
        st.write_ops <- st.write_ops + 1;
        let rec attempt tries =
          let t0 = Loadgen.now_ms () in
          Loadgen.send c ~expect:Loadgen.Values (Loadgen.gets_req (name key)) (fun reply t ->
              record st.reads ~sent:t0 ~completed:t;
              match reply with
              | Loadgen.Hits [ h ] ->
                let v = fresh ci in
                let t1 = Loadgen.now_ms () in
                Loadgen.send c ~expect:Loadgen.One_line
                  (Loadgen.cas_req (name key) v h.Loadgen.h_cas) (fun reply t ->
                    record st.writes ~sent:t1 ~completed:t;
                    match reply with
                    | Loadgen.Line "STORED" ->
                      ack st ci key v;
                      completed st t;
                      k ()
                    | Loadgen.Line "EXISTS" when tries < max_retries ->
                      st.retries <- st.retries + 1;
                      attempt (tries + 1)
                    | r ->
                      completed st t;
                      fail st ("cas: " ^ reply_text r);
                      k ())
              | r ->
                completed st t;
                fail st ("gets: " ^ reply_text r);
                k ())
        in
        attempt 0
      | Keygen.Txn (a, b, d) ->
        st.write_ops <- st.write_ops + 1;
        let rec attempt tries =
          let writes = List.map (fun key -> (key, fresh ci)) [ a; b; d ] in
          let t0 = Loadgen.now_ms () in
          Loadgen.send c ~expect:(Loadgen.Txn_block 3)
            (Loadgen.txn_req (List.map (fun (key, v) -> (name key, v)) writes))
            (fun reply t ->
              record st.writes ~sent:t0 ~completed:t;
              match reply with
              | Loadgen.Line "COMMITTED" ->
                List.iter (fun (key, v) -> ack st ci key v) writes;
                completed st t;
                k ()
              | Loadgen.Line _ when tries < max_retries ->
                st.retries <- st.retries + 1;
                attempt (tries + 1)
              | r ->
                completed st t;
                fail st ("txn: " ^ reply_text r);
                k ())
        in
        attempt 0);
      true
    end
  in
  if not (closed_loop lg ~depth:write_depth ~deadline_ms:(stop_at +. 30_000.0) ~next) then
    fail st "closed loop did not drain 30 s after its end";
  (Loadgen.now_ms () -. start) /. 1000.0

(* Shared keys: whatever a connection reads back must be some acknowledged
   write of that key (or its preload value if nobody wrote it), and a key
   only this connection wrote must read as its own last write. *)
let check_write st lg =
  readback st lg ~keys:(List.init write_keys Fun.id) ~expect:(fun ci key data ->
      let w = st.writers.(key) in
      if w = 0 then String.equal data (preload_value key)
      else if w = 1 lsl ci then String.equal data st.last_ack.(ci).(key)
      else Hashtbl.mem st.acked (key, data))

(* ---------------- one trial ---------------- *)

type trial = {
  p_state : state;
  p_wall_s : float;
  p_setup_s : float;  (* deployment start, connect and preload *)
  p_before : snap;
  p_after : snap;
  p_live_mb : float;  (* live heap right after the measured phase *)
  p_sent_bytes : int;
  p_recv_bytes : int;
  p_recorded : string list;  (* per connection request bytes, when recording *)
}

let input_of kind rng =
  match kind with Read -> `Read (read_input rng) | Write -> `Write (write_input rng)

(* Set up a fresh deployment, run [input] against it, then read back and
   stop it. *)
let trial kind input ~traced =
  let t0 = Stat.now_s () in
  let d = if traced then start_traced () else start_untraced () in
  let lg = Loadgen.create ~port:d.d_port ~conns in
  preload lg ~keys:(keys_of kind);
  let setup_s = Stat.now_s () -. t0 in
  let st = new_state kind in
  let bytes () =
    Array.fold_left
      (fun (s, r) c -> (s + c.Loadgen.sent_bytes, r + c.Loadgen.recv_bytes))
      (0, 0) lg.Loadgen.conns
  in
  if traced then Loadgen.set_recording lg true;
  let before = take d in
  let s0, r0 = bytes () in
  let wall =
    match input with
    | `Read ri -> run_read st lg ri
    | `Write ops -> run_write st lg ops
  in
  let after = take d in
  let live_mb = Stat.live_heap_mb () in
  let s1, r1 = bytes () in
  let recorded = Array.to_list (Array.map Loadgen.recorded lg.Loadgen.conns) in
  Loadgen.set_recording lg false;
  (match kind with Read -> check_read st lg | Write -> check_write st lg);
  Loadgen.close lg;
  d.d_stop ();
  {
    p_state = st;
    p_wall_s = wall;
    p_setup_s = setup_s;
    p_before = before;
    p_after = after;
    p_live_mb = live_mb;
    p_sent_bytes = s1 - s0;
    p_recv_bytes = r1 - r0;
    p_recorded = recorded;
  }

(* ---------------- replay through Parser and Handler ---------------- *)

let stub_data = String.make value_bytes 'x'

(* A synchronous backend that answers every verb at once: the handler's
   own cost without the protocol below it. *)
let stub_backend =
  {
    Backend.b_get =
      (fun key _level k -> k (Some { Protocol.h_key = key; h_flags = 0; h_data = stub_data; h_cas = 1 }));
    b_set = (fun ~key:_ ~flags:_ ~data:_ k -> k Backend.Stored);
    b_cas = (fun ~key:_ ~flags:_ ~data:_ ~cas:_ k -> k Backend.Stored);
    b_delete = (fun _ k -> k Backend.Stored);
    b_commit = (fun _ k -> k (Ok ()));
    b_stats = (fun () -> []);
  }

let chunk = 16384

let feed_chunks data f =
  let b = Bytes.unsafe_of_string data in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    let len = min chunk (n - !off) in
    f b !off len;
    off := !off + len
  done

let parse_pass recorded =
  let items = ref 0 in
  List.iter
    (fun data ->
      let p = Parser.create () in
      feed_chunks data (fun b off len ->
          Parser.feed p b off len;
          let rec drain () =
            match Parser.next p with
            | Some _ ->
              incr items;
              drain ()
            | None -> ()
          in
          drain ()))
    recorded;
  !items

let handler_pass recorded =
  let out = ref 0 in
  let obs = Obs.create () in
  List.iter
    (fun data ->
      let h =
        Handler.create ~backend:stub_backend ~write:(fun s -> out := !out + String.length s)
          ~close:ignore ~obs ()
      in
      feed_chunks data (fun b off len -> Handler.on_data h b off len))
    recorded;
  !out

(* Median over three passes of (ns, minor words) for [f]. *)
let measure f =
  let one () =
    let w0 = Gc.minor_words () in
    let t0 = Stat.now_s () in
    ignore (Sys.opaque_identity (f ()));
    let t1 = Stat.now_s () in
    ((t1 -. t0) *. 1e9, Gc.minor_words () -. w0)
  in
  let runs = List.init 3 (fun _ -> one ()) in
  (Stat.median (List.map fst runs), Stat.median (List.map snd runs))

type replay = {
  r_items : int;
  r_parser_ns : float;
  r_parser_words : float;
  r_handler_ns : float;  (* parser included *)
  r_handler_words : float;
}

let replay recorded =
  let items = parse_pass recorded in
  let parser_ns, parser_words = measure (fun () -> parse_pass recorded) in
  let handler_ns, handler_words = measure (fun () -> handler_pass recorded) in
  { r_items = items; r_parser_ns = parser_ns; r_parser_words = parser_words;
    r_handler_ns = handler_ns; r_handler_words = handler_words }
