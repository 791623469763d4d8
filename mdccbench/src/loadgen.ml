(* Single-domain load generator for the wire protocol.

   One domain multiplexes every client connection with nonblocking sockets
   and [Unix.select], so the client side never competes with the server
   for more than one core (a second client domain roughly triples p99 on a
   two-core host).  Each connection keeps a FIFO of outstanding requests;
   the server answers a connection's requests strictly in order, so the
   head of the FIFO always says what shape the next reply has. *)

type expect =
  | One_line  (** [set]/[cas]: STORED, EXISTS, NOT_FOUND, ... *)
  | Values  (** [get]/[gets]: VALUE blocks then END *)
  | Txn_block of int  (** STARTED, [n] x QUEUED, then COMMITTED or ABORTED *)

type hit = { h_key : string; h_data : string; h_cas : int }

type reply =
  | Line of string  (** the single (or final) reply line, CRLF stripped *)
  | Hits of hit list
  | Bad of string  (** an error line or a malformed reply *)

type pending = { expect : expect; k : reply -> float -> unit }

type conn = {
  fd : Unix.file_descr;
  mutable ob : Bytes.t;  (* queued request bytes [ooff, olen) *)
  mutable ooff : int;
  mutable olen : int;
  mutable ib : Bytes.t;  (* received reply bytes [ipos, ilen) *)
  mutable ipos : int;
  mutable ilen : int;
  q : pending Queue.t;
  mutable sent_bytes : int;
  mutable recv_bytes : int;
  mutable record : Buffer.t option;  (* every request byte, for replay *)
}

type t = { conns : conn array }

let now_ms () = Unix.gettimeofday () *. 1000.0

let connect ~port =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd TCP_NODELAY true;
  Unix.set_nonblock fd;
  {
    fd;
    ob = Bytes.create 65536;
    ooff = 0;
    olen = 0;
    ib = Bytes.create 65536;
    ipos = 0;
    ilen = 0;
    q = Queue.create ();
    sent_bytes = 0;
    recv_bytes = 0;
    record = None;
  }

let create ~port ~conns = { conns = Array.init conns (fun _ -> connect ~port) }

let close t = Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns

let outstanding t = Array.fold_left (fun acc c -> acc + Queue.length c.q) 0 t.conns

let set_recording t on =
  Array.iter (fun c -> c.record <- (if on then Some (Buffer.create (1 lsl 20)) else None)) t.conns

let recorded c = match c.record with Some b -> Buffer.contents b | None -> ""

(* ---------------- output ---------------- *)

let flush c =
  let continue = ref true in
  while !continue && c.ooff < c.olen do
    match Unix.single_write c.fd c.ob c.ooff (c.olen - c.ooff) with
    | n ->
      c.ooff <- c.ooff + n;
      c.sent_bytes <- c.sent_bytes + n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> continue := false
  done;
  if c.ooff = c.olen then begin
    c.ooff <- 0;
    c.olen <- 0
  end

let append c s =
  let n = String.length s in
  if c.olen + n > Bytes.length c.ob then begin
    let live = c.olen - c.ooff in
    let cap = ref (Bytes.length c.ob) in
    while live + n > !cap do
      cap := 2 * !cap
    done;
    let nb = if !cap > Bytes.length c.ob then Bytes.create !cap else c.ob in
    Bytes.blit c.ob c.ooff nb 0 live;
    c.ob <- nb;
    c.ooff <- 0;
    c.olen <- live
  end;
  Bytes.blit_string s 0 c.ob c.olen n;
  c.olen <- c.olen + n;
  match c.record with Some b -> Buffer.add_string b s | None -> ()

(* Queue one request (its full byte string) and the continuation for its
   reply; the bytes go out on the next flush. *)
let send c ~expect bytes k =
  append c bytes;
  Queue.push { expect; k } c.q

(* ---------------- reply parsing ---------------- *)

let find_crlf c from =
  let rec go i =
    if i + 1 >= c.ilen then -1
    else if Bytes.unsafe_get c.ib i = '\r' && Bytes.unsafe_get c.ib (i + 1) = '\n' then i
    else go (i + 1)
  in
  go from

(* A complete line starting at [pos]: [Some (line, next)] or [None]. *)
let line_at c pos =
  let e = find_crlf c pos in
  if e < 0 then None else Some (Bytes.sub_string c.ib pos (e - pos), e + 2)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let is_error line =
  starts_with ~prefix:"ERROR" line
  || starts_with ~prefix:"CLIENT_ERROR" line
  || starts_with ~prefix:"SERVER_ERROR" line

(* Try to parse one whole reply of shape [expect] at [ipos]; [None] until
   all of its bytes have arrived. *)
let parse_reply c expect =
  match expect with
  | One_line -> (
    match line_at c c.ipos with
    | None -> None
    | Some (line, next) -> Some ((if is_error line then Bad line else Line line), next))
  | Values ->
    let rec go pos acc =
      match line_at c pos with
      | None -> None
      | Some ("END", next) -> Some (Hits (List.rev acc), next)
      | Some (line, next) when is_error line -> Some (Bad line, next)
      | Some (line, next) -> (
        match String.split_on_char ' ' line with
        | "VALUE" :: key :: _flags :: bytes :: rest -> (
          match int_of_string_opt bytes with
          | None -> Some (Bad line, next)
          | Some n ->
            if next + n + 2 > c.ilen then None
            else
              let data = Bytes.sub_string c.ib next n in
              let cas = match rest with cas :: _ -> int_of_string cas | [] -> 0 in
              go (next + n + 2) ({ h_key = key; h_data = data; h_cas = cas } :: acc))
        | _ -> Some (Bad line, next))
    in
    go c.ipos []
  | Txn_block queued ->
    (* STARTED, QUEUED x [queued], final line — any deviation is Bad. *)
    let rec go pos i =
      match line_at c pos with
      | None -> None
      | Some (line, next) ->
        let ok =
          if i = 0 then String.equal line "STARTED"
          else if i <= queued then String.equal line "QUEUED"
          else String.equal line "COMMITTED" || starts_with ~prefix:"ABORTED" line
        in
        if not ok then Some (Bad line, next)
        else if i = queued + 1 then Some (Line line, next)
        else go next (i + 1)
    in
    go c.ipos 0

let drain_replies c now =
  let continue = ref true in
  while !continue && not (Queue.is_empty c.q) do
    let p = Queue.peek c.q in
    match parse_reply c p.expect with
    | None -> continue := false
    | Some (reply, next) ->
      c.ipos <- next;
      ignore (Queue.pop c.q);
      p.k reply now
  done;
  if c.ipos = c.ilen then begin
    c.ipos <- 0;
    c.ilen <- 0
  end

let read_ready c =
  if c.ilen = Bytes.length c.ib then begin
    let live = c.ilen - c.ipos in
    let nb = if live * 2 > Bytes.length c.ib then Bytes.create (2 * Bytes.length c.ib) else c.ib in
    Bytes.blit c.ib c.ipos nb 0 live;
    c.ib <- nb;
    c.ipos <- 0;
    c.ilen <- live
  end;
  match Unix.read c.fd c.ib c.ilen (Bytes.length c.ib - c.ilen) with
  | 0 -> failwith "load generator: server closed the connection"
  | n ->
    c.ilen <- c.ilen + n;
    c.recv_bytes <- c.recv_bytes + n;
    true
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> false

(* One multiplexing step: flush queued requests, wait up to [timeout_ms]
   for readable/writable sockets, then parse and dispatch every complete
   reply.  Continuations run here and may queue further requests. *)
let poll t ~timeout_ms =
  Array.iter flush t.conns;
  let reads = Array.to_list (Array.map (fun c -> c.fd) t.conns) in
  let writes =
    Array.fold_left (fun acc c -> if c.olen > c.ooff then c.fd :: acc else acc) [] t.conns
  in
  match Unix.select reads writes [] (Float.max 0.0 timeout_ms /. 1000.0) with
  | exception Unix.Unix_error (EINTR, _, _) -> ()
  | readable, _, _ ->
    if readable <> [] then begin
      let now = now_ms () in
      Array.iter
        (fun c ->
          if List.mem c.fd readable then
            if read_ready c then drain_replies c now)
        t.conns
    end

(* Poll until nothing is outstanding or [deadline_ms] passes; [true] if
   every reply arrived. *)
let wait_all t ~deadline_ms =
  while outstanding t > 0 && now_ms () < deadline_ms do
    poll t ~timeout_ms:5.0
  done;
  outstanding t = 0

(* ---------------- request rendering ---------------- *)

let set_req key data = Printf.sprintf "set %s 0 0 %d\r\n%s\r\n" key (String.length data) data

let cas_req key data cas =
  Printf.sprintf "cas %s 0 0 %d %d\r\n%s\r\n" key (String.length data) cas data

let get_req key = "get " ^ key ^ "\r\n"
let gets_req key = "gets " ^ key ^ "\r\n"

let txn_req writes =
  let b = Buffer.create 256 in
  Buffer.add_string b "txn\r\n";
  List.iter (fun (key, data) -> Buffer.add_string b (set_req key data)) writes;
  Buffer.add_string b "commit\r\n";
  Buffer.contents b
