(* Shared machinery of bench.exe: one timer, one section record, one JSON
   schema (mdcc.bench.v2) and the kind-aware baseline comparison behind
   --check.  Kept apart from the sections so the comparison can be tested
   on hand-made documents. *)

module Json = Mdcc_obs.Json

(* How --check judges a metric:
   - [Det]: deterministic for a given build (minor words/op on a
     single-domain section, events/run, virtual-time results).  Any move
     beyond +-2% fails, improvements included: a better number must be
     re-recorded in the baseline by the change that earns it.
   - [Ratio]: a same-machine ratio (the sweep speedup).  Must reach the
     2.0x floor and stay within 20% of the baseline, each rule applied
     only where the measurement had at least [jobs] cores.
   - [Info]: wall-clock numbers and latencies.  Delta printed, never
     gated. *)
type kind = Det | Ratio | Info

type section = {
  name : string;  (** "<group>.<case>", e.g. "events.network_send" *)
  ops : int;
  jobs : int;  (** domains the section ran on *)
  cores : int;  (** cores the machine offered *)
  metrics : (string * kind * float) list;
}

let schema = "mdcc.bench.v2"

let det_tolerance = 0.02

let ratio_floor = 2.0

let ratio_tolerance = 0.2

let group s = List.hd (String.split_on_char '.' s.name)

(* ---------------- the timer ---------------- *)

type span = { wall_s : float; minor_words : float }

(* [Gc.minor_words] counts the calling domain only, so the words of a
   section that fans out over domains are not the section's allocation. *)
let timed f =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let wall_s = Unix.gettimeofday () -. t0 in
  let minor_words = Gc.minor_words () -. w0 in
  (r, { wall_s; minor_words })

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0 else sorted.(Stdlib.min (n - 1) (int_of_float (Float.of_int n *. p)))

(* The one record every section reports.  [latencies] are seconds, sorted. *)
let section ?(jobs = 1) ?latencies ?(extra = []) name ~ops span =
  let per_op x = x /. Float.of_int (max 1 ops) in
  let latency =
    match latencies with
    | None -> []
    | Some sorted ->
      List.map
        (fun (label, p) -> (label, Info, percentile sorted p *. 1000.0))
        [ ("p50_ms", 0.50); ("p99_ms", 0.99); ("p999_ms", 0.999) ]
  in
  {
    name;
    ops;
    jobs;
    cores = Domain.recommended_domain_count ();
    metrics =
      [
        ("wall_s", Info, span.wall_s);
        ("ops_per_s", Info, Float.of_int ops /. span.wall_s);
        ("minor_words_per_op", (if jobs = 1 then Det else Info), per_op span.minor_words);
      ]
      @ latency @ extra;
  }

(* ---------------- the document ---------------- *)

let kind_names = [ (Det, "det"); (Ratio, "ratio"); (Info, "info") ]

let to_json sections =
  let metric (name, kind, v) =
    (name, Json.Obj [ ("kind", Json.Str (List.assoc kind kind_names)); ("value", Json.Float v) ])
  in
  let section s =
    ( s.name,
      Json.Obj
        [
          ("ops", Json.Int s.ops);
          ("jobs", Json.Int s.jobs);
          ("cores", Json.Int s.cores);
          ("metrics", Json.Obj (List.map metric s.metrics));
        ] )
  in
  Json.Obj [ ("schema", Json.Str schema); ("sections", Json.Obj (List.map section sections)) ]

let of_json doc =
  let ( let* ) = Option.bind in
  let int name j = match Json.member name j with Some (Json.Int i) -> Some i | _ -> None in
  let metric (name, j) =
    let* kind = match Json.member "kind" j with Some (Json.Str k) -> Some k | _ -> None in
    let* kind = List.find_map (fun (k, n) -> if n = kind then Some k else None) kind_names in
    match Json.member "value" j with
    | Some (Json.Float v) -> Some (name, kind, v)
    | Some (Json.Int i) -> Some (name, kind, Float.of_int i)
    | _ -> None
  in
  let section (name, j) =
    let* ops = int "ops" j in
    let* jobs = int "jobs" j in
    let* cores = int "cores" j in
    let* metrics = match Json.member "metrics" j with Some (Json.Obj ms) -> Some ms | _ -> None in
    let parsed = List.filter_map metric metrics in
    if List.compare_lengths parsed metrics <> 0 then None
    else Some { name; ops; jobs; cores; metrics = parsed }
  in
  match (Json.member "schema" doc, Json.member "sections" doc) with
  | Some (Json.Str s), Some (Json.Obj sections) when s = schema ->
    let parsed = List.filter_map section sections in
    if List.compare_lengths parsed sections = 0 then Ok parsed
    else Error "malformed section"
  | Some (Json.Str s), _ when s <> schema -> Error (Printf.sprintf "schema %S, expected %S" s schema)
  | _ -> Error "not an mdcc.bench.v2 document"

(* ---------------- the comparison ---------------- *)

type line = { ok : bool; text : string }

let line ok fmt = Printf.ksprintf (fun text -> { ok; text }) fmt

let starved s = s.cores < s.jobs

let compare_metric ~base ~cur (name, kind, v) =
  let label = cur.name ^ " " ^ name in
  let prior = List.find_map (fun (n, _, b) -> if n = name then Some b else None) base.metrics in
  let delta b = if b = 0.0 then if v = 0.0 then 0.0 else Float.infinity else (v -. b) /. b in
  match (kind, prior) with
  | Info, None -> [ line true "info  %-60s %12.6g  (new)" label v ]
  | Info, Some b -> [ line true "info  %-60s %12.6g  base %12.6g  %+7.1f%%" label v b (100.0 *. delta b) ]
  | Det, None -> [ line false "det   %-60s %12.6g  FAIL: not in baseline (re-record it)" label v ]
  | Det, Some b ->
    let d = delta b in
    if Float.abs d <= det_tolerance then
      [ line true "det   %-60s %12.6g  base %12.6g  %+7.2f%%  ok" label v b (100.0 *. d) ]
    else
      [
        line false "det   %-60s %12.6g  base %12.6g  %+7.2f%%  FAIL: beyond +-%.0f%%%s" label v b
          (100.0 *. d) (100.0 *. det_tolerance)
          (if d < 0.0 then " (improved: re-record the baseline)" else "");
      ]
  | Ratio, _ when starved cur ->
    [
      line true
        "ratio %-60s %12.3g  SKIPPING floor and regression rules (%d cores < %d jobs: the \
         ratio measures time-slicing, not parallelism)"
        label v cur.cores cur.jobs;
    ]
  | Ratio, prior ->
    let floor =
      if v >= ratio_floor then line true "ratio %-60s %12.3g  floor %.1fx ok" label v ratio_floor
      else line false "ratio %-60s %12.3g  FAIL: below the %.1fx floor" label v ratio_floor
    in
    let relative =
      match prior with
      | _ when starved base ->
        line true
          "ratio %-60s SKIPPING regression rule (baseline recorded with %d cores < %d jobs)" label
          base.cores base.jobs
      | None -> line false "ratio %-60s FAIL: not in baseline (re-record it)" label
      | Some b when v < b *. (1.0 -. ratio_tolerance) ->
        line false "ratio %-60s %12.3g  base %12.3g  FAIL: regressed more than %.0f%%" label v b
          (100.0 *. ratio_tolerance)
      | Some b -> line true "ratio %-60s %12.3g  base %12.3g  ok" label v b
    in
    [ floor; relative ]

let compare_section ~base ~cur =
  let current_names = List.map (fun (n, _, _) -> n) cur.metrics in
  List.concat_map (compare_metric ~base ~cur) cur.metrics
  @ List.filter_map
      (fun (name, kind, b) ->
        if List.mem name current_names then None
        else
          Some
            (line (kind = Info) "%-5s %-60s base %12.6g  gone%s" (List.assoc kind kind_names)
               (cur.name ^ " " ^ name) b
               (if kind = Info then "" else ": FAIL (re-record the baseline)")))
      base.metrics

(* Every current section must have a baseline and every baseline section
   must have been measured; a section missing on either side fails rather
   than passing unexamined. *)
let compare ~baseline ~current =
  let find name l = List.find_opt (fun s -> s.name = name) l in
  List.concat_map
    (fun cur ->
      match find cur.name baseline with
      | Some base -> compare_section ~base ~cur
      | None -> [ line false "%s: FAIL: section missing from the baseline (re-record it)" cur.name ])
    current
  @ List.filter_map
      (fun base ->
        match find base.name current with
        | Some _ -> None
        | None -> Some (line false "%s: FAIL: baseline section was not measured" base.name))
      baseline
