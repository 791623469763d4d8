type t = { registry : Registry.t; spans : Span.t option }

let create ?(spans = false) () =
  {
    registry = Registry.create ();
    spans = (if spans then Some (Span.create ()) else None);
  }

let registry t = t.registry
let spans t = t.spans
let incr t ?by name = Registry.incr t.registry ?by name
let counter_handle t name = Registry.counter_handle t.registry name
let bump = Registry.bump
let bump_by = Registry.bump_by

let counter_family t name_of =
  let hs = ref [||] in
  fun i ->
    let n = Array.length !hs in
    if i >= n then
      hs := Array.append !hs (Array.init (i + 1 - n) (fun j -> counter_handle t (name_of (n + j))));
    !hs.(i)

let set_gauge t name v = Registry.set_gauge t.registry name v
let add_gauge t name d = Registry.add_gauge t.registry name d
let observe t name sample = Registry.observe t.registry name sample

let begin_txn t ~txid ~at =
  match t.spans with Some sp -> Span.begin_txn sp ~txid ~at | None -> ()

let span_event t ~txid ~at ~node ~name ?key ~detail () =
  match t.spans with
  | Some sp -> Span.event sp ~txid ~at ~node ~name ?key ~detail ()
  | None -> ()

let metrics_json t = Registry.to_json t.registry

let spans_json t =
  match t.spans with Some sp -> Span.to_json sp | None -> Json.List []

let merge ~into src = Registry.merge ~into:into.registry src.registry

(* One ambient handle per domain: a worker domain gets a fresh, empty
   default instead of scribbling into the main domain's registry.  Code
   that wants cross-domain aggregation runs with an explicit fresh handle
   per task and [merge]s the results in task order. *)
let ambient_key : t Domain.DLS.key = Domain.DLS.new_key (fun () -> create ())
let ambient () = Domain.DLS.get ambient_key

let reset_ambient () =
  let h = ambient () in
  Registry.clear h.registry;
  match h.spans with Some sp -> Span.clear sp | None -> ()
