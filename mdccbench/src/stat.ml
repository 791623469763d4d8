(* Sample statistics for the benchmark's reports.

   Percentiles use the nearest-rank rule on a sorted array.  A tail
   percentile is only trustworthy when enough samples lie beyond it, so
   [summarize] also picks the highest candidate with at least ten samples
   above its rank and reports that count next to the value. *)

(* Growable float buffer: latency samples are appended on the load
   generator's hot path, so no list cells per sample. *)
module Fvec = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let bigger = Array.make (2 * v.len) 0.0 in
      Array.blit v.data 0 bigger 0 v.len;
      v.data <- bigger
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let length v = v.len

  let sorted v =
    let a = Array.sub v.data 0 v.len in
    Array.sort Float.compare a;
    a
end

(* 1-based nearest rank of percentile [p] (0 < p <= 100) among [n]. *)
let rank ~n p =
  let r = int_of_float (Float.ceil ((p /. 100.0 *. float_of_int n) -. 1e-9)) in
  max 1 (min n r)

let beyond ~n p = n - rank ~n p

let at sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan else sorted.(rank ~n p - 1)

let median xs =
  match List.sort Float.compare xs with
  | [] -> Float.nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let tail_candidates = [ 99.99; 99.9; 99.0; 90.0; 50.0 ]

(* The highest candidate percentile with at least ten samples beyond it. *)
let highest_supported ~n = List.find_opt (fun p -> beyond ~n p >= 10) tail_candidates

type summary = {
  n : int;
  p50 : float;
  p99 : float;
  p99_beyond : int;  (** samples above the p99 rank *)
  tail_pct : float option;  (** highest supported percentile *)
  tail : float;
  tail_beyond : int;
}

let summarize sorted =
  let n = Array.length sorted in
  let tail_pct = highest_supported ~n in
  let tail, tail_beyond =
    match tail_pct with
    | Some p -> (at sorted p, beyond ~n p)
    | None -> (Float.nan, 0)
  in
  { n; p50 = at sorted 50.0; p99 = at sorted 99.0; p99_beyond = beyond ~n 99.0; tail_pct;
    tail; tail_beyond }

let describe name unit s =
  let tail =
    match s.tail_pct with
    | Some p -> Printf.sprintf "  highest supported p%g %.4f %s (%d beyond)" p s.tail unit s.tail_beyond
    | None -> "  (fewer than 11 samples: no supported tail percentile)"
  in
  Printf.sprintf "%s: n=%d  p50 %.4f %s  p99 %.4f %s (%d beyond)%s" name s.n s.p50 unit s.p99
    unit s.p99_beyond tail


let now_s () = Unix.gettimeofday ()

(* Live major heap after a full collection, in MB: the program state the
   run built up.  The peak heap size would instead depend on when the
   major GC happened to finish its cycles. *)
let live_heap_mb () =
  Gc.full_major ();
  float_of_int (Gc.quick_stat ()).Gc.live_words *. float_of_int (Sys.word_size / 8) /. 1e6
