(* Point-to-point network with authenticated channels and a rushing,
   static adversary, executed by one deterministic executor.

   Model (paper Sec. 1): n parties, rounds; a message sent in round r is
   delivered at the start of round r+1; honest-to-honest messages cannot
   be dropped or modified (authenticated channels). The adversary
   statically controls a corrupt set; within each round it is *rushing*:
   it observes every message the honest parties sent in the current round
   before choosing the corrupt parties' messages.

   One stepper, [run_slices], advances rounds. Each round it visits the
   active set in ascending party order: the parties holding a delivery
   plus the protocol's spontaneous actors for that round ([extra]). A
   party outside that set has an empty inbox and was not named as an
   actor, so the per-round cost scales with the parties that talk, not
   with n. Protocols in which every party acts every round name
   [everyone] as their actors. A handler reads its inbox as an
   {!Inbox.t} view of its slice of the delivery arrays (below), and the
   adversary and the attached condition read the round's honest sends
   through a view of the same kind.

   One executor delivers the round's sends: in (virtual delivery time,
   send seq) order, with per-edge latency/jitter/loss and a GST knob from
   the {!Sched.async_cfg} chosen at {!create} (see sched.ml for the
   synchronizer argument: round semantics survive the chaos knobs,
   delivery order and the virtual clock do not). Lock-step is its
   zero-knob case. With zero knobs and no condition attached every
   latency is 1 and nothing is ever parked, so [deliver] takes a
   shortcut: send order is delivery order, and no latency is drawn, no
   route asked and no bucket sorted.

   No message is a heap record while it is in flight, and no per-message
   slot holds a pointer. A round's distinct bodies (tag, payload and
   {!Wire.size}) sit in a body table; a send whose tag and payload are
   physically the round's last body reuses that body, so a fan-out stores
   one body for all its destinations; [send_many] looks that body up once
   for the whole destination array. A send is then three int stores into
   the staging arrays (source, destination, body);
   delivery counting-sorts the round's deliveries by destination into the
   delivery arrays (source, body), where each party's inbox is one
   contiguous slice. Two body tables alternate: one backs the current
   inboxes, the other takes this round's sends, and delivery clears the
   older one, body by body, before swapping them. All arrays are reused
   across rounds, so a payload is reachable from the network only until
   the round after its delivery. A handler's view points into these
   arrays and is repointed for the next party. The rushing view copies
   the round's honest sends (source, destination, body) into three more
   reused int arrays once, before the adversary moves. Only parked
   deliveries (deferred past the barrier, held for a dark party, or more
   than [bucket_span] ticks out) become records, on the {!Sched.Heap}
   binary heap, and are staged again when drained.
   The reason is the GC: a record or cons cell that sits in a long-lived
   structure across its round is promoted by every minor collection that
   catches it in flight, and that promotion costs far more than the
   allocation; and every pointer stored into a long-lived array, or
   cleared from one, goes through the write barrier, while an int store
   does not.

   Off the shortcut a due send costs one latency draw on its source's
   edge table (see {!Sched.edges}: a source's fan-out sits in a few cache
   lines), one route verdict when a condition is attached, one
   counting-sort step and, for a network's first 65,536 deliveries, two
   int stores into the delivery sample.

   Protocols are per-party step functions closing over their own state;
   corrupt parties have no handler and their behaviour lives entirely in
   the adversary. Every send and delivery is charged to {!Metrics}, a
   fan-out in one call and each round's inbox in one call;
   everything else that watches a run (auditor, flight recorder,
   transcript taps) subscribes to the {!Repro_obs.Event} stream emitted
   here, whose [Round_end] carries the round's charges from {!Metrics}. *)

module Event = Repro_obs.Event

(* A round's distinct message bodies, slots [0, b_n). Unused pointer
   slots hold [""] and [Bytes.empty]. *)
type bodies = {
  mutable b_tag : string array;
  mutable b_pay : bytes array;
  mutable b_size : int array; (* [Wire.size] of the body *)
  mutable b_n : int;
}

let no_bodies () = { b_tag = [||]; b_pay = [||]; b_size = [||]; b_n = 0 }

type t = {
  n : int;
  corrupt : bool array;
  metrics : Metrics.t;
  sinks : Event.sink list; (* observers, in subscription order *)
  (* The executor: *)
  cfg : Sched.async_cfg;
  edges : Sched.edges;
  heap : (Wire.msg * int) Sched.Heap.t;
      (* parked deliveries with their send virtual time: a condition's
         [Defer] past the round barrier, deliveries held for a dark party,
         and the rare send more than [bucket_span] ticks out. A round's
         other sends never touch it (see [deliver]). *)
  stats : Sched.stats;
  mutable vt : int; (* virtual clock; advances to the round barrier *)
  mutable seq : int; (* global send counter: heap tiebreak = send order *)
  mutable lockstep : bool;
      (* zero knobs and no condition: every latency is 1, nothing is
         parked and the clock equals the round (see [deliver]) *)
  (* [deliver]'s per-round scratch off the lock-step shortcut, reused
     across rounds: *)
  mutable offs : int array; (* per send: delivery time - vt; -1 = parked *)
  mutable order : int array; (* due sends' indices, by (offset, send) *)
  starts : int array; (* per offset: its first slot in [order] *)
  (* Staging: this round's sends in send order, slots [0, st_n), each
     naming its body in [st_bodies]. Parked mail drained at the round's
     close is appended past the round's own sends. *)
  mutable st_src : int array;
  mutable st_dst : int array;
  mutable st_body : int array;
  mutable st_n : int;
  mutable st_bodies : bodies;
  mutable dl_order : int array; (* staging slots, in delivery order *)
  (* Deliveries for the current round: party i's inbox is slots
     [dl_start.(i), dl_start.(i) + dl_len.(i)) of the [dl_*] arrays, in
     delivery order, each naming its body in [dl_bodies]; [dl_n] slots
     are in use. *)
  mutable dl_src : int array;
  mutable dl_body : int array;
  mutable dl_n : int;
  mutable dl_bodies : bodies;
  dl_start : int array;
  dl_len : int array;
  dirty : int array; (* parties with a non-empty inbox, [0, ndirty) *)
  mutable ndirty : int;
  in_active : Bytes.t; (* the stepper's membership marks, all '\000' between rounds *)
  view : Inbox.t; (* the running handler's inbox slice (see [run_slices]) *)
  (* The rushing view: this round's honest sends, in send order, copied
     out of staging before the adversary's turn. *)
  sent : Inbox.t;
  mutable hs_src : int array;
  mutable hs_dst : int array;
  mutable hs_body : int array;
  mutable round : int;
  mutable in_adv_step : bool; (* inside the adversary's turn of a round *)
  mutable condition : Sched.condition option;
      (* network-condition hook; None = ideal network *)
}

type slice_handler = round:int -> Inbox.t -> unit

type adversary = {
  adv_name : string;
  adv_step : t -> round:int -> honest_staged:Inbox.t -> unit;
      (* called after honest parties act; rushing: sees their sends *)
}

let null_adversary = { adv_name = "null"; adv_step = (fun _ ~round:_ ~honest_staged:_ -> ()) }

let observed t = match t.sinks with [] -> false | _ -> true
(* Top-level recursion rather than [List.iter]: no closure per event. *)
let rec emit_to ev = function [] -> () | f :: rest -> f ev; emit_to ev rest
let emit t ev = emit_to ev t.sinks

let bucket_span = Sched.bucket_span

let create ?backend ?(sinks = []) ~n ~corrupt () =
  let c = Array.make n false in
  List.iter
    (fun i ->
      if i < 0 || i >= n then invalid_arg "Network.create: corrupt index";
      c.(i) <- true)
    corrupt;
  let cfg = match backend with Some b -> Sched.cfg_of b | None -> Sched.default_async in
  let t =
    {
      n;
      corrupt = c;
      metrics = Metrics.create ~per_round:(sinks <> []) n;
      sinks;
      cfg;
      edges = Sched.edges_create ~seed:cfg.Sched.a_seed;
      heap = Sched.Heap.create ();
      stats = Sched.stats_create ();
      vt = 0;
      seq = 0;
      lockstep = Sched.pure_sync cfg;
      offs = [||];
      order = [||];
      starts = Array.make (bucket_span + 1) 0;
      st_src = [||];
      st_dst = [||];
      st_body = [||];
      st_n = 0;
      st_bodies = no_bodies ();
      dl_order = [||];
      dl_src = [||];
      dl_body = [||];
      dl_n = 0;
      dl_bodies = no_bodies ();
      dl_start = Array.make n 0;
      dl_len = Array.make n 0;
      dirty = Array.make n 0;
      ndirty = 0;
      in_active = Bytes.make n '\000';
      view = Inbox.create ();
      sent = Inbox.create ();
      hs_src = [||];
      hs_dst = [||];
      hs_body = [||];
      round = 0;
      in_adv_step = false;
      condition = None;
    }
  in
  (* Subscribers learn the static corrupt set the way they learn upgrades. *)
  if observed t then
    Array.iteri (fun p bad -> if bad then emit t (Event.Corrupt p)) c;
  t

let n t = t.n
let metrics t = t.metrics

let virtual_time t = t.vt
let async_stats t = t.stats

(* A condition routes every later delivery, so it ends the lock-step
   shortcut for the rest of the run. *)
let set_condition t c =
  t.condition <- Some c;
  t.lockstep <- false

(* A party is dark when the attached condition says so for the current
   (virtual time, round) — its handler is skipped and its deliveries are
   held on the heap until it resumes. Without a condition every party is
   up. *)
let party_up t i =
  match t.condition with
  | Some c -> not (c.Sched.c_down ~now:t.vt ~round:t.round i)
  | None -> true

(* Mid-run corruption upgrade (the adaptive adversary's move). The mask
   here is the only one; observers hear of the upgrade as an event. The
   upgraded party's handler stops being scheduled from the next honest
   check on. *)
let mark_corrupt t p =
  if p < 0 || p >= t.n then invalid_arg "Network.mark_corrupt: party index";
  if not t.corrupt.(p) then begin
    t.corrupt.(p) <- true;
    emit t (Event.Corrupt p)
  end

let round t = t.round

(* Phase marks carry the round they open at; the exit is emitted even when
   [f] raises, so observers' phase stacks never leak a frame. *)
let phase t name f =
  if not (observed t) then f ()
  else begin
    emit t (Event.Phase_enter { round = t.round; name });
    Fun.protect ~finally:(fun () -> emit t Event.Phase_exit) f
  end

let is_corrupt t i = t.corrupt.(i)
let is_honest t i = not t.corrupt.(i)
let everyone t = List.init t.n Fun.id
let honest_parties t = List.filter (is_honest t) (everyone t)
let corrupt_parties t = List.filter (is_corrupt t) (everyone t)

let h_msg_bytes = Repro_obs.Counters.histogram "net.msg_bytes"

(* Scheduler occupancy, observed once per round: how many parties were
   active, and how many inboxes were dirty before the spontaneous actors
   were merged in. Both are functions of the delivery schedule, hence
   deterministic. *)
let h_active = Repro_obs.Counters.histogram "net.active_set"
let h_dirty = Repro_obs.Counters.histogram "net.dirty_depth"

(* The buffers grow by doubling and never shrink. Unused pointer slots
   hold [""] and [Bytes.empty], which are long-lived: a large
   [Array.make] of them does not force a minor collection, and clearing a
   slot to them keeps nothing alive. *)
let grown_to a k fill =
  let a' = Array.make (max 256 (max k (2 * Array.length a))) fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* The slot of a body in [b]: the last one when [tag] and [payload] are
   physically its own (a fan-out), else a new one. *)
let body_of b ~tag payload ~size =
  let k = b.b_n in
  if k > 0 && b.b_pay.(k - 1) == payload && b.b_tag.(k - 1) == tag then k - 1
  else begin
    if k = Array.length b.b_tag then begin
      b.b_tag <- grown_to b.b_tag (k + 1) "";
      b.b_pay <- grown_to b.b_pay (k + 1) Bytes.empty;
      b.b_size <- grown_to b.b_size (k + 1) 0
    end;
    b.b_tag.(k) <- tag;
    b.b_pay.(k) <- payload;
    b.b_size.(k) <- size;
    b.b_n <- k + 1;
    k
  end

let clear_bodies b =
  Array.fill b.b_tag 0 b.b_n "";
  Array.fill b.b_pay 0 b.b_n Bytes.empty;
  b.b_n <- 0

(* Append one message to the staging arrays; returns its slot. *)
let stage t ~src ~dst ~tag payload ~size =
  let k = t.st_n in
  if k = Array.length t.st_src then begin
    t.st_src <- grown_to t.st_src (k + 1) 0;
    t.st_dst <- grown_to t.st_dst (k + 1) 0;
    t.st_body <- grown_to t.st_body (k + 1) 0
  end;
  t.st_src.(k) <- src;
  t.st_dst.(k) <- dst;
  t.st_body.(k) <- body_of t.st_bodies ~tag payload ~size;
  t.st_n <- k + 1;
  k

let staged_msg t k =
  let b = t.st_bodies and body = t.st_body.(k) in
  { Wire.src = t.st_src.(k); dst = t.st_dst.(k); tag = b.b_tag.(body); payload = b.b_pay.(body) }

let clear_staging t =
  clear_bodies t.st_bodies;
  t.st_n <- 0

let clear_inboxes t =
  for j = 0 to t.ndirty - 1 do
    t.dl_len.(t.dirty.(j)) <- 0
  done;
  t.ndirty <- 0;
  clear_bodies t.dl_bodies;
  t.dl_n <- 0

let send t ~src:s ~dst ~tag payload =
  if s < 0 || s >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Network.send: party index out of range";
  (* Channels are authenticated (paper Sec. 1): the adversary speaks only
     for the corrupt set, never in an honest party's name. *)
  if t.in_adv_step && not t.corrupt.(s) then
    invalid_arg "Network.send: adversary send from honest src rejected";
  let size = Wire.size ~tag payload in
  if observed t then begin
    (* Off the lock-step shortcut every send also carries the virtual
       staging time, so replay can verify the timing schedule too; on it
       the clock is the round. *)
    let vt = if t.lockstep then None else Some t.vt in
    emit t (Event.Send { round = t.round; vt; src = s; dst; tag; payload; bits = 8 * size })
  end;
  Metrics.note_send t.metrics ~src:s ~dst ~tag ~size;
  Repro_obs.Counters.observe h_msg_bytes (Bytes.length payload);
  ignore (stage t ~src:s ~dst ~tag payload ~size : int)

(* One body for the whole fan-out, and the checks, the size, the charge
   and the histogram once; each destination then costs its event, when
   observed, and three int stores. *)
let send_many t ~src:s ~dsts ~tag payload =
  let nd = Array.length dsts in
  if nd > 0 then begin
    if s < 0 || s >= t.n then invalid_arg "Network.send: party index out of range";
    for j = 0 to nd - 1 do
      let dst = Array.unsafe_get dsts j in
      if dst < 0 || dst >= t.n then invalid_arg "Network.send: party index out of range"
    done;
    if t.in_adv_step && not t.corrupt.(s) then
      invalid_arg "Network.send: adversary send from honest src rejected";
    let size = Wire.size ~tag payload in
    let body = body_of t.st_bodies ~tag payload ~size in
    let k0 = t.st_n in
    if k0 + nd > Array.length t.st_src then begin
      t.st_src <- grown_to t.st_src (k0 + nd) 0;
      t.st_dst <- grown_to t.st_dst (k0 + nd) 0;
      t.st_body <- grown_to t.st_body (k0 + nd) 0
    end;
    if observed t then begin
      let vt = if t.lockstep then None else Some t.vt in
      for j = 0 to nd - 1 do
        let dst = Array.unsafe_get dsts j in
        emit t (Event.Send { round = t.round; vt; src = s; dst; tag; payload; bits = 8 * size })
      done
    end;
    Metrics.note_send_many t.metrics ~src:s ~dsts ~tag ~size;
    Repro_obs.Counters.observe_n h_msg_bytes (Bytes.length payload) nd;
    let st_src = t.st_src and st_dst = t.st_dst and st_body = t.st_body in
    for j = 0 to nd - 1 do
      st_src.(k0 + j) <- s;
      st_dst.(k0 + j) <- Array.unsafe_get dsts j;
      st_body.(k0 + j) <- body
    done;
    t.st_n <- k0 + nd
  end

let point_inbox t v i =
  let b = t.dl_bodies in
  Inbox.set v ~self:i ~srcs:t.dl_src ~bodies:t.dl_body ~tags:b.b_tag ~pays:b.b_pay
    ~off:t.dl_start.(i) ~len:t.dl_len.(i)

let delivered t i =
  let v = Inbox.create () in
  point_inbox t v i;
  v

(* Point [t.sent] at the current round's staged sends sourced at honest
   parties, in send order: what a rushing adversary observes. *)
let point_sent t =
  let n = t.st_n in
  if Array.length t.hs_src < n then begin
    t.hs_src <- grown_to t.hs_src n 0;
    t.hs_dst <- grown_to t.hs_dst n 0;
    t.hs_body <- grown_to t.hs_body n 0
  end;
  let m = ref 0 in
  for k = 0 to n - 1 do
    let src = t.st_src.(k) in
    if not t.corrupt.(src) then begin
      t.hs_src.(!m) <- src;
      t.hs_dst.(!m) <- t.st_dst.(k);
      t.hs_body.(!m) <- t.st_body.(k);
      incr m
    end
  done;
  let b = t.st_bodies in
  Inbox.set_sends t.sent ~srcs:t.hs_src ~dsts:t.hs_dst ~bodies:t.hs_body ~tags:b.b_tag
    ~pays:b.b_pay ~len:!m

(* Delivery costs O(messages), not O(n): only the inboxes dirtied last
   round are reset, so rounds where polylog(n) parties talk never touch
   the other n - polylog(n) parties. [dl_order.(0 .. nd - 1)] names the
   round's deliveries (staging slots) in delivery order; a counting sort
   by destination lays each party's inbox out as one slice, keeping that
   order within it. Each inbox is then charged to [Metrics] once. The
   staged bodies then back the inboxes, and the previous inboxes' table,
   cleared, takes the next round's sends. *)
let distribute t nd =
  clear_inboxes t;
  let order = t.dl_order and len = t.dl_len and dirty = t.dirty in
  let st_dst = t.st_dst in
  for k = 0 to nd - 1 do
    let d = st_dst.(order.(k)) in
    if len.(d) = 0 then begin
      dirty.(t.ndirty) <- d;
      t.ndirty <- t.ndirty + 1
    end;
    len.(d) <- len.(d) + 1
  done;
  (* Point each inbox's start just past its slice ... *)
  let next = ref 0 in
  for j = 0 to t.ndirty - 1 do
    let d = dirty.(j) in
    next := !next + len.(d);
    t.dl_start.(d) <- !next
  done;
  if Array.length t.dl_src < nd then begin
    t.dl_src <- grown_to t.dl_src nd 0;
    t.dl_body <- grown_to t.dl_body nd 0
  end;
  (* ... and fill back to front, each delivery taking its inbox's last
     free slot. *)
  let start = t.dl_start and st_src = t.st_src and st_body = t.st_body in
  let dl_src = t.dl_src and dl_body = t.dl_body in
  let size = t.st_bodies.b_size in
  for k = nd - 1 downto 0 do
    let i = order.(k) in
    let dst = st_dst.(i) in
    let p = start.(dst) - 1 in
    start.(dst) <- p;
    dl_src.(p) <- st_src.(i);
    dl_body.(p) <- st_body.(i)
  done;
  for j = 0 to t.ndirty - 1 do
    let d = dirty.(j) in
    let off = start.(d) and l = len.(d) in
    let bytes = ref 0 in
    for p = off to off + l - 1 do
      bytes := !bytes + size.(dl_body.(p))
    done;
    Metrics.note_inbox t.metrics ~dst:d ~srcs:dl_src ~off ~len:l ~bytes:!bytes
  done;
  t.dl_n <- nd;
  let cleared = t.dl_bodies in
  t.dl_bodies <- t.st_bodies;
  t.st_bodies <- cleared;
  t.st_n <- 0

let ensure_order t n =
  if Array.length t.dl_order < n then t.dl_order <- grown_to t.dl_order n 0

(* Delivery: every message staged this round is due at [vt + latency],
   latency drawn on its (src, dst) edge stream in send order; the round
   barrier is the maximum delivery time, so the round's mail is delivered
   completely before the next round activates (round semantics are
   preserved — see sched.ml). What the knobs change: inboxes fill in
   (delivery-time, send-seq) order rather than send order, and the virtual
   clock jumps to the barrier.

   With all knobs zero and no condition attached ([t.lockstep]) every
   latency is 1 and the heap stays empty, so (time, seq) order is send
   order and the barrier is [vt + 1]: the round is delivered in send
   order with no draw, no route and no sort. Its sends still take their
   seqs and are charged to the statistics in bulk; they add no delivery
   sample, whose every pair would be (vt, vt + 1).

   Otherwise the order is the event queue's (time, seq) order, but almost
   every send is due within its own round, so those never enter the heap:
   they are counting-sorted by offset into [t.order], send order kept
   within an offset, and merged with the heap's parked events as they are
   drained. At equal times the heap goes first: this round's heap events
   lie past every bucket, so a heap event due at a bucketed time was sent
   in an earlier round and its seq is older. Each send still takes a seq,
   so the heap sees the seqs it would if every send were pushed. *)
let deliver t =
  let n = t.st_n in
  let seq0 = t.seq in
  t.seq <- seq0 + n;
  if t.lockstep then begin
    ensure_order t n;
    for k = 0 to n - 1 do
      t.dl_order.(k) <- k
    done;
    let st = t.stats in
    st.Sched.st_sends <- st.Sched.st_sends + n;
    if n > 0 then st.Sched.st_max_latency <- 1;
    distribute t n;
    t.vt <- t.vt + 1
  end
  else begin
    if Array.length t.offs < n then begin
      t.offs <- grown_to t.offs n 0;
      t.order <- grown_to t.order n 0
    end;
    let offs = t.offs and order = t.order in
    let st_src = t.st_src and st_dst = t.st_dst in
    let now = t.vt in
    let barrier = ref (now + 1) in
    for i = 0 to n - 1 do
      let src = st_src.(i) and dst = st_dst.(i) in
      let lat = Sched.draw_latency t.edges t.cfg ~src ~dst ~now in
      (* The condition sees the drawn latency and may reroute: [Deliver]
         stays inside the round (extends the barrier like any draw),
         [Defer] parks the event past the barrier so it crosses rounds.
         No condition = [Deliver lat], the historical behaviour. *)
      let dv =
        match t.condition with
        | None ->
          if now + lat > !barrier then barrier := now + lat;
          now + lat
        | Some c -> (
          match c.Sched.c_route ~now ~round:t.round ~src ~dst ~lat with
          | Sched.Deliver lat ->
            let dv = now + Int.max 1 lat in
            if dv > !barrier then barrier := dv;
            dv
          | Sched.Defer vt -> Int.max (now + 1) vt)
      in
      offs.(i) <- dv - now
    done;
    let heap = t.heap in
    (* Park what is not bucketed, in send (= seq) order; count the rest per
       offset, then lay their indices out by (offset, send). *)
    let due = Int.min bucket_span (!barrier - now) in
    let starts = t.starts in
    Array.fill starts 0 (bucket_span + 1) 0;
    for i = 0 to n - 1 do
      let off = offs.(i) in
      if off > due then begin
        Sched.Heap.push heap ~time:(now + off) ~seq:(seq0 + i + 1) (staged_msg t i, now);
        offs.(i) <- -1
      end
      else starts.(off) <- starts.(off) + 1
    done;
    let nb = ref 0 in
    for off = 1 to due do
      let c = starts.(off) in
      starts.(off) <- !nb;
      nb := !nb + c
    done;
    for i = 0 to n - 1 do
      let off = offs.(i) in
      if off > 0 then begin
        order.(starts.(off)) <- i;
        starts.(off) <- starts.(off) + 1
      end
    done;
    (* Drain everything due by the barrier; later events stay parked. A
       delivery whose destination is dark this round is requeued just past
       the barrier (fresh seq), so it retries every round until the party
       resumes — and because [barrier + 1 > barrier] the drain always
       terminates. The requeue re-stamps the send time to the hold point:
       holding mail for a crashed receiver models a retransmit on resume,
       so the partial-synchrony straggler accounting (which bounds the
       *network's* latency, not a crashed party's outage) measures from the
       re-offer. Delivery statistics are charged once, at the drain step
       that actually delivers. *)
    (* A delivery made at the close of round r is read by its handler in
       round r + 1, so the hold test asks about the round the message would
       be *read* in — the exact complement of the handler skip, which is
       what makes churn lossless: a party dark for [r0, r1) reads nothing
       in that window and everything held for it on resume. *)
    let down dst =
      match t.condition with
      | None -> false
      | Some c -> c.Sched.c_down ~now ~round:(t.round + 1) dst
    in
    (* At most every bucketed send and every parked event is delivered;
       a drained parked event is re-staged, so it gets a staging slot. *)
    ensure_order t (n + Sched.Heap.size heap);
    let nd = ref 0 in
    let hold m =
      t.seq <- t.seq + 1;
      Sched.Heap.push heap ~time:(!barrier + 1) ~seq:t.seq (m, !barrier)
    in
    let accept slot ~send_vt ~time =
      Sched.note_delivery t.stats t.cfg ~send_vt ~deliver_vt:time;
      t.dl_order.(!nd) <- slot;
      incr nd
    in
    let take_parked () =
      let time = Sched.Heap.min_time heap in
      let ((m : Wire.msg), send_vt) = Sched.Heap.take heap in
      if down m.dst then hold m
      else
        let size = Wire.size ~tag:m.tag m.payload in
        accept (stage t ~src:m.src ~dst:m.dst ~tag:m.tag m.payload ~size) ~send_vt ~time
    in
    let k = ref 0 in
    while !k < !nb do
      let i = order.(!k) in
      let time = now + offs.(i) in
      if Sched.Heap.size heap > 0 && Sched.Heap.min_time heap <= time then
        take_parked ()
      else begin
        incr k;
        if down t.st_dst.(i) then hold (staged_msg t i) else accept i ~send_vt:now ~time
      end
    done;
    while Sched.Heap.size heap > 0 && Sched.Heap.min_time heap <= !barrier do
      take_parked ()
    done;
    distribute t !nd;
    t.vt <- !barrier
  end

(* Adversary turn, delivery and round close. *)
let finish_round t adversary ~scheduled =
  (* Copied once: the adversary only adds corrupt-sourced sends, and only
     [c_observe] below can corrupt a party, so both see the same view.
     Nobody reads it without an adversary or a condition: skip the copy. *)
  if adversary != null_adversary || Option.is_some t.condition then point_sent t;
  t.in_adv_step <- true;
  Fun.protect
    ~finally:(fun () -> t.in_adv_step <- false)
    (fun () -> adversary.adv_step t ~round:t.round ~honest_staged:t.sent);
  (* The adaptive hook observes the same honest traffic the rushing
     adversary just saw, and may upgrade its corrupt set before delivery —
     upgrades take effect from the next round's honest check. *)
  (match t.condition with
  | Some c ->
    c.Sched.c_observe ~now:t.vt ~round:t.round ~msgs:t.sent ~corrupt:(mark_corrupt t)
  | None -> ());
  deliver t;
  (* Receives of round r's sends are charged to round r, keeping per-round
     send/recv conservation; observers see the round close after delivery,
     with everything charged since the previous close. *)
  if observed t then
    emit t (Event.Round_end (Metrics.close_round t.metrics ~round:t.round ~scheduled));
  t.round <- t.round + 1

(* The one stepper. A handler reads its inbox through [t.view], pointed
   at its delivery slice just before the call: no message is copied or
   consed to hand it over. *)
let run_slices t ?(adversary = null_adversary) ~rounds ~extra handler_of =
  let target = t.round + rounds in
  while t.round < target do
    Repro_obs.Trace.span ~cat:"net" "net.round" @@ fun () ->
    (* Active set: the protocol's spontaneous actors for this round plus
       the parties with pending deliveries, once each, ascending. Actor
       lists usually come ascending and cover most inboxes, so only the
       few other inboxes (say, corrupt committee members') are sorted and
       merged in. Every active party's handler is looked up before any
       handler runs. *)
    let actors_rev = ref [] and ascending = ref true in
    let unmark () =
      List.iter (fun i -> Bytes.set t.in_active i '\000') !actors_rev
    in
    List.iter
      (fun i ->
        if i < 0 || i >= t.n then begin
          unmark ();
          invalid_arg "Network.run_slices: party index"
        end;
        if Bytes.get t.in_active i = '\000' then begin
          Bytes.set t.in_active i '\001';
          (match !actors_rev with j :: _ when j > i -> ascending := false | _ -> ());
          actors_rev := i :: !actors_rev
        end)
      (extra ~round:t.round);
    let others = ref [] in
    for j = t.ndirty - 1 downto 0 do
      let d = t.dirty.(j) in
      if Bytes.get t.in_active d = '\000' then others := d :: !others
    done;
    unmark ();
    let actors =
      if !ascending then List.rev !actors_rev
      else List.sort Int.compare !actors_rev
    in
    let active =
      match !others with
      | [] -> actors
      | others -> List.merge Int.compare actors (List.sort Int.compare others)
    in
    Repro_obs.Counters.observe h_dirty t.ndirty;
    Repro_obs.Counters.observe h_active (List.length active);
    let parties =
      List.filter_map
        (fun i -> match handler_of i with Some h -> Some (i, h) | None -> None)
        active
    in
    Metrics.note_round t.metrics;
    let scheduled = ref 0 in
    List.iter
      (fun (i, (handler : slice_handler)) ->
        if is_honest t i && party_up t i then begin
          incr scheduled;
          point_inbox t t.view i;
          handler ~round:t.round t.view
        end)
      parties;
    finish_round t adversary ~scheduled:!scheduled
  done

(* The bench's list adapter (see the .mli). *)
let run_active t ~rounds ~extra handler_of =
  let listed v =
    List.init (Inbox.length v) (fun k ->
        let tag = Inbox.tag v k and payload = Inbox.payload v k in
        { Wire.src = Inbox.src v k; dst = Inbox.dst v k; tag; payload })
  in
  run_slices t ~rounds ~extra (fun i ->
      Option.map (fun h ~round v -> h ~round ~inbox:(listed v)) (handler_of i))

(* Between protocol phases: drop the round's staged sends and the pending
   inboxes, so a new sub-protocol starts from a clean slate while metrics
   accumulate. Mail parked on the heap is not in-flight in this
   sense and survives (see the .mli). *)
let flush t =
  clear_staging t;
  clear_inboxes t
