(* Per-call timing of the protocol layer for the traced runs.

   [wrap] builds a {!Mdcc_core.Runtime.t} over an existing runtime that
   times every delivered message (keyed by the receiving node's role and
   the message constructor's name), every timer callback and every
   spawned callback.  Nested timed calls are charged self time only: a
   parent's count of nanoseconds and minor words excludes what its timed
   children took, so the buckets add up to the covered time exactly once.

   The wrapper adds no events, consumes no randomness and passes every
   call straight through, so a deployment assembled over it executes the
   same program as the untraced one (the sim-tpcw traced run checks that
   commit, abort and message counts match exactly). *)

module Runtime = Mdcc_core.Runtime

type acc = { mutable count : int; mutable ns : float; mutable words : float }

type t = {
  buckets : (string, acc) Hashtbl.t;
  by_ctor : (int * int, acc) Hashtbl.t;  (* (role index, ctor id) -> bucket *)
  role_of : int -> string;
  roles : (string, int) Hashtbl.t;
  mutable child_ns : float;  (* time of timed children of the open call *)
  mutable child_words : float;
  mutable covered_ns : float;  (* wall time inside outermost timed calls *)
  mutable covered_words : float;
  mutable depth : int;
  mutable overhead_ns : float;  (* cost of timing one empty call *)
  mutable overhead_words : float;
}

let create ~role_of =
  {
    buckets = Hashtbl.create 64;
    by_ctor = Hashtbl.create 64;
    role_of;
    roles = Hashtbl.create 4;
    child_ns = 0.0;
    child_words = 0.0;
    covered_ns = 0.0;
    covered_words = 0.0;
    depth = 0;
    overhead_ns = 0.0;
    overhead_words = 0.0;
  }

let bucket t name =
  match Hashtbl.find_opt t.buckets name with
  | Some a -> a
  | None ->
    let a = { count = 0; ns = 0.0; words = 0.0 } in
    Hashtbl.replace t.buckets name a;
    a

let ns () = Unix.gettimeofday () *. 1e9

(* Run [f] charging its self time and self minor words to [a]. *)
let timed t a f =
  let saved_ns = t.child_ns and saved_words = t.child_words in
  t.child_ns <- 0.0;
  t.child_words <- 0.0;
  t.depth <- t.depth + 1;
  let w0 = Gc.minor_words () in
  let t0 = ns () in
  let finish () =
    let dt = ns () -. t0 in
    let dw = Gc.minor_words () -. w0 in
    a.count <- a.count + 1;
    a.ns <- a.ns +. (dt -. t.child_ns);
    a.words <- a.words +. (dw -. t.child_words);
    t.child_ns <- saved_ns +. dt;
    t.child_words <- saved_words +. dw;
    t.depth <- t.depth - 1;
    if t.depth = 0 then begin
      t.covered_ns <- t.covered_ns +. dt;
      t.covered_words <- t.covered_words +. dw
    end
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let ctor_name payload =
  let full = Obj.Extension_constructor.name (Obj.Extension_constructor.of_val payload) in
  match String.rindex_opt full '.' with
  | Some i -> String.sub full (i + 1) (String.length full - i - 1)
  | None -> full

let role_index t role =
  match Hashtbl.find_opt t.roles role with
  | Some i -> i
  | None ->
    let i = Hashtbl.length t.roles in
    Hashtbl.replace t.roles role i;
    i

(* The bucket of a message delivered to a node of [role]: resolved once
   per (role, constructor) so a delivery does no string work. *)
let message_bucket t ~role ~ri payload =
  let id = Obj.Extension_constructor.id (Obj.Extension_constructor.of_val payload) in
  match Hashtbl.find_opt t.by_ctor (ri, id) with
  | Some a -> a
  | None ->
    let a = bucket t (role ^ "." ^ ctor_name payload) in
    Hashtbl.replace t.by_ctor (ri, id) a;
    a

let wrap t inner =
  Runtime.make
    ~now:(fun () -> Runtime.now inner)
    ~send:(fun ~src ~dst payload -> Runtime.send inner ~src ~dst payload)
    ~register:(fun node handler ->
      let role = t.role_of node in
      let ri = role_index t role in
      Runtime.register inner node (fun ~src payload ->
          timed t (message_bucket t ~role ~ri payload) (fun () -> handler ~src payload)))
    ~set_timer:(fun ~after f ->
      let a = bucket t "timer" in
      let timer = Runtime.set_timer inner ~after (fun () -> timed t a f) in
      fun () -> Runtime.cancel_timer inner timer)
    ~spawn:(fun f ->
      let a = bucket t "spawn" in
      Runtime.spawn inner (fun () -> timed t a f))
    ~rng:(Runtime.rng inner)
    ~dc_of:(fun node -> Runtime.dc_of inner node)
    ~trace:(fun ~tag msg -> Runtime.trace inner ~tag "%s" msg)
    ~tracing:(fun () -> Runtime.tracing inner)
    ()

(* Measure what timing an empty call costs (the clock reads, the float
   boxes and the closure), so [buckets] reports the calls' own cost. *)
let calibrate t =
  let probe = { count = 0; ns = 0.0; words = 0.0 } in
  let saved = (t.covered_ns, t.covered_words) in
  for _ = 1 to 1000 do
    timed t probe ignore
  done;
  t.covered_ns <- fst saved;
  t.covered_words <- snd saved;
  t.overhead_ns <- probe.ns /. 1000.0;
  t.overhead_words <- probe.words /. 1000.0

(* Buckets as [(name, acc)] net of the timing overhead, heaviest self time
   first. *)
let buckets t =
  if t.overhead_words = 0.0 then calibrate t;
  Hashtbl.fold
    (fun name a acc ->
      let n = float_of_int a.count in
      ( name,
        { count = a.count;
          ns = Float.max 0.0 (a.ns -. (n *. t.overhead_ns));
          words = Float.max 0.0 (a.words -. (n *. t.overhead_words)) } )
      :: acc)
    t.buckets []
  |> List.sort (fun (n1, a) (n2, b) ->
         match Float.compare b.ns a.ns with 0 -> String.compare n1 n2 | c -> c)
