(* The load generator: one thread, one [select] loop, at most two
   pipelined connections.

   Open-loop phases send on a seeded Poisson schedule whatever the
   server is doing, and every request is stamped with the time it was
   {e due}, so a stall that delays later sends is charged to their
   latency (no coordinated omission); how late the generator itself
   ran is recorded as lag. Closed-loop phases keep a fixed number of
   requests outstanding per connection and send the next one as soon
   as one completes.

   Responses are matched to requests by the [id] every response
   echoes; lines carrying no outstanding id (session pushes, which are
   stamped with subscribe-time ids) belong to the oldest outstanding
   request on their connection. Only a digest of each response is
   kept: the correctness gate compares it to the in-process
   reference. *)

module Fr = Server.Framing

let now () = Obs.Clock.monotonic ()

type slot = {
  item : Plan.item;
  phase : string;
  due_ns : int64;  (** scheduled send (open loop) or slot free (closed loop) *)
  open_loop : bool;
  mutable sent_ns : int64;
  mutable done_ns : int64;  (** last response line; [0L] while outstanding *)
  mutable got : int;
  mutable digest : string;  (** chained over the response lines *)
  mutable error : bool;  (** an ["error"] status line answered a query *)
  mutable overloaded : bool;  (** refused before admission: drew no stream *)
  keep : bool;  (** keep the text of the response (op=stats) *)
  mutable text : string list;
}

let chain digest line = Digest.string (digest ^ line)
let complete s = s.got >= s.item.Plan.expect

(* Latency in ms from the due time: the scheduled send in an open
   loop, the send itself in a closed one. *)
let latency_ms s =
  Int64.to_float (Int64.sub s.done_ns (if s.open_loop then s.due_ns else s.sent_ns)) /. 1e6

type conn = { fd : Unix.file_descr; reader : Fr.reader; writer : Fr.writer; mutable eof : bool }

type t = {
  conns : conn array;
  by_id : (string, slot) Hashtbl.t;
  fifo : slot Queue.t array;  (** outstanding, in send order, per connection *)
  mutable log : slot list;  (** every request sent, newest first *)
  mutable stray : int;  (** response lines no request was waiting for *)
}

let connect ~port ~conns =
  let one () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    Unix.set_nonblock fd;
    { fd; reader = Fr.reader ~max_line:(1 lsl 24) fd; writer = Fr.writer fd; eof = false }
  in
  let conns = Array.init conns (fun _ -> one ()) in
  {
    conns;
    by_id = Hashtbl.create 4096;
    fifo = Array.map (fun _ -> Queue.create ()) conns;
    log = [];
    stray = 0;
  }

let close t = Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns
let slots t = Array.of_list (List.rev t.log)
let outstanding t = Array.exists (fun q -> not (Queue.is_empty q)) t.fifo

let flush c =
  match Fr.flush c.writer with
  | Fr.Flushed | Fr.Blocked -> ()
  | Fr.Closed -> c.eof <- true

let send t ?(open_loop = false) ?(keep = false) ~phase ~due_ns (item : Plan.item) =
  let c = t.conns.(item.Plan.conn) in
  let s =
    {
      item;
      phase;
      due_ns;
      open_loop;
      sent_ns = 0L;
      done_ns = 0L;
      got = 0;
      digest = "";
      error = false;
      overloaded = false;
      keep;
      text = [];
    }
  in
  Fr.enqueue c.writer item.Plan.line;
  s.sent_ns <- now ();
  flush c;
  Hashtbl.replace t.by_id item.Plan.id s;
  Queue.add s t.fifo.(item.Plan.conn);
  t.log <- s :: t.log;
  s

(* The echoed id sits in the first few fields of every response:
   {"v":1,"status":"...","id":"..."}. *)
let id_of line =
  let pat = "\"id\":\"" in
  let lp = String.length pat and n = min (String.length line) 96 in
  let rec find i =
    if i + lp > n then None
    else if String.sub line i lp = pat then
      match String.index_from_opt line (i + lp) '"' with
      | Some j -> Some (String.sub line (i + lp) (j - i - lp))
      | None -> None
    else find (i + 1)
  in
  find 0

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let contains s sub =
  let ls = String.length s and lsub = String.length sub in
  let rec go i = i + lsub <= ls && (String.sub s i lsub = sub || go (i + 1)) in
  go 0

let rec retire_done q =
  match Queue.peek_opt q with
  | Some s when complete s ->
    ignore (Queue.pop q);
    retire_done q
  | _ -> ()

let on_line t ci line ~at =
  let q = t.fifo.(ci) in
  retire_done q;
  let target =
    match Option.bind (id_of line) (Hashtbl.find_opt t.by_id) with
    | Some s when s.item.Plan.conn = ci && not (complete s) -> Some s
    | _ -> Queue.peek_opt q
  in
  match target with
  | None -> t.stray <- t.stray + 1
  | Some s ->
    s.got <- s.got + 1;
    s.digest <- chain s.digest line;
    if s.keep then s.text <- line :: s.text;
    if s.item.Plan.expect = 1 && starts_with ~prefix:"{\"v\":1,\"status\":\"error\"" line then begin
      s.error <- true;
      if contains line "\"kind\":\"overloaded\"" then s.overloaded <- true
    end;
    if complete s then begin
      s.done_ns <- at;
      Hashtbl.remove t.by_id s.item.Plan.id;
      retire_done q
    end

(* One [select] round: wait at most [timeout] seconds for a readable
   or writable connection, then read one chunk from each readable one
   and flush each writable one. *)
let pump t ~timeout =
  let reads = ref [] and writes = ref [] in
  Array.iter
    (fun c ->
      if not c.eof then begin
        reads := c.fd :: !reads;
        if Fr.buffered c.writer then writes := c.fd :: !writes
      end)
    t.conns;
  match Unix.select !reads !writes [] (Float.max 0. timeout) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | rs, ws, _ ->
    let at = now () in
    Array.iteri
      (fun ci c ->
        if List.mem c.fd ws then flush c;
        if List.mem c.fd rs then begin
          let r = Fr.poll c.reader in
          List.iter (fun l -> on_line t ci l ~at) r.Fr.lines;
          if r.Fr.eof then c.eof <- true
        end)
      t.conns

let secs ns = Int64.to_float ns /. 1e9

(* Pump until nothing is outstanding or [deadline_ns] passes. *)
let drain t ~deadline_ns =
  while outstanding t && Array.exists (fun c -> not c.eof) t.conns && now () < deadline_ns do
    pump t ~timeout:(Float.min 0.05 (secs (Int64.sub deadline_ns (now ()))))
  done

(* [tick] runs between select rounds (the traced run's op=stats
   polling hooks in here). *)
let run_open t ~tick ~phase (schedule : (int64 * Plan.item) array) =
  let t0 = now () in
  let n = Array.length schedule in
  let i = ref 0 in
  while !i < n do
    let at = now () in
    while !i < n && Int64.add t0 (fst schedule.(!i)) <= at do
      let due_ns = Int64.add t0 (fst schedule.(!i)) in
      ignore (send t ~open_loop:true ~phase ~due_ns (snd schedule.(!i)));
      incr i
    done;
    tick ();
    if !i < n then pump t ~timeout:(secs (Int64.sub (Int64.add t0 (fst schedule.(!i))) (now ())))
  done

(* Keep [window] requests outstanding on every connection for
   [seconds]. Returns the throughput: requests completed per second
   in each half-second of the phase, median over the halves, so that a
   single stall of the host does not decide the number. *)
let run_closed t ~tick ~phase ~window ~seconds ~next =
  let conns = Array.length t.conns in
  let t0 = now () in
  let stop = Int64.add t0 (Int64.of_float (seconds *. 1e9)) in
  let live = Array.make conns [] in
  (* A replacement is due when the request it replaces completed, so
     the closed loop's lag is the generator's own reaction time. *)
  let refill ci =
    let finished, pending = List.partition complete live.(ci) in
    live.(ci) <- pending;
    let dues =
      List.map (fun s -> s.done_ns) finished
      @ List.init (window - List.length pending - List.length finished) (fun _ -> now ())
    in
    List.iter
      (fun due_ns ->
        if now () < stop then live.(ci) <- send t ~phase ~due_ns (next ~conn:ci) :: live.(ci))
      dues
  in
  while now () < stop do
    for ci = 0 to conns - 1 do
      refill ci
    done;
    tick ();
    pump t ~timeout:(Float.min 0.05 (secs (Int64.sub stop (now ()))))
  done;
  let width = 500_000_000L in
  let halves = max 1 (Int64.to_int (Int64.div (Int64.sub stop t0) width)) in
  let counts = Array.make halves 0. in
  List.iter
    (fun s ->
      if String.equal s.phase phase && complete s then
        let k = Int64.to_int (Int64.div (Int64.sub s.done_ns t0) width) in
        if k < halves then counts.(k) <- counts.(k) +. 1.)
    t.log;
  Quant.median (Array.map (fun c -> c /. 0.5) counts)

(* Closed loop with exactly one request outstanding, over a fixed list
   of items; returns the elapsed seconds. *)
let run_sequence t ~tick ~phase ~deadline_ns items =
  let t0 = now () in
  let last = ref t0 in
  List.iter
    (fun item ->
      let s = send t ~phase ~due_ns:!last item in
      last := s.sent_ns;
      while (not (complete s)) && (not t.conns.(item.Plan.conn).eof) && now () < deadline_ns do
        tick ();
        pump t ~timeout:0.05
      done;
      if complete s then last := s.done_ns)
    items;
  secs (Int64.sub (now ()) t0)

(* Send an op=stats line and wait for its answer, kept in its slot. *)
let stats t ~id ~deadline_ns =
  let s =
    send t ~keep:true ~phase:"admin" ~due_ns:(now ())
      { Plan.line = "v=1 op=stats id=" ^ id; id; conn = 0; expect = 1 }
  in
  while (not (complete s)) && now () < deadline_ns do
    pump t ~timeout:0.05
  done
