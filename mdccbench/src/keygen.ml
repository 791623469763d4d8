(* Seeded key and operation generators for the wire workloads.

   Everything here is a pure function of the seed: the same seed gives the
   same operation stream, so a run's inputs are fixed before its timing
   starts and differ only when the seed does. *)

module Rng = Mdcc_util.Rng

(* Zipf-distributed ranks over [0, n) with exponent [s], mapped through a
   seeded permutation so the hot keys scatter over the hash partitions
   instead of being the lexically first names. *)
type zipf = { cdf : float array; perm : int array }

let zipf rng ~n ~s =
  let w = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) s) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  let cdf =
    Array.map
      (fun x ->
        acc := !acc +. (x /. total);
        !acc)
      w
  in
  cdf.(n - 1) <- 1.0;
  let perm = Array.init n Fun.id in
  Rng.shuffle rng perm;
  { cdf; perm }

(* First rank whose cumulative weight exceeds [u]. *)
let zipf_rank z u =
  let lo = ref 0 and hi = ref (Array.length z.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

let zipf_draw z rng = z.perm.(zipf_rank z (Rng.float rng 1.0))

let key_name i = Printf.sprintf "k%06d" i

type op =
  | Get of int
  | Set of int
  | Cas of int  (** [gets] then [cas] with the returned token *)
  | Txn of int * int * int  (** three distinct keys in one [txn]/[commit] *)

(* wire-read: ~90% [get] uniform over the whole keyspace, ~10% [set].
   Connection [c] only writes keys congruent to [c] modulo [conns], so
   every key has a single writer and its read-back is exact. *)
let read_mix rng ~keys ~conns ~count =
  Array.init count (fun i ->
      let conn = i mod conns in
      if Rng.float rng 1.0 < 0.1 then
        let slice = keys / conns in
        (conn, Set ((Rng.int rng slice * conns) + conn))
      else (conn, Get (Rng.int rng keys)))

let distinct3 z rng =
  let a = zipf_draw z rng in
  let rec other excl =
    let k = zipf_draw z rng in
    if List.mem k excl then other excl else k
  in
  let b = other [ a ] in
  let c = other [ a; b ] in
  (a, b, c)

(* wire-write: ~80% writes ([set] 30%, [gets]+[cas] 30%, 3-key txn 20%)
   and ~20% [get], all keys from the shared skewed distribution. *)
let write_mix z rng ~count =
  Array.init count (fun _ ->
      let r = Rng.float rng 1.0 in
      if r < 0.30 then Set (zipf_draw z rng)
      else if r < 0.60 then Cas (zipf_draw z rng)
      else if r < 0.80 then
        let a, b, c = distinct3 z rng in
        Txn (a, b, c)
      else Get (zipf_draw z rng))

(* Open-loop schedule arithmetic.  Request [i] is due [i / rate] seconds
   after [start_ms]; its latency runs from that due time, not from when
   the generator actually got to send it, so a stall that delays later
   sends is charged to them (no coordinated omission). *)
let due_ms ~start_ms ~rate i = start_ms +. (float_of_int i *. 1000.0 /. rate)

let lateness_ms ~due ~sent = Float.max 0.0 (sent -. due)

let latency_ms ~due ~completed = completed -. due

(* How many requests are due by [now_ms] (indices [0, n) have due <= now). *)
let due_count ~start_ms ~rate ~now_ms =
  if now_ms < start_ms then 0
  else int_of_float (Float.floor ((now_ms -. start_ms) *. rate /. 1000.0)) + 1
