(* The network's one executor: its configuration, event queue, per-edge
   latency streams, delivery statistics and network conditions.

   The network's one stepper ([Network.run_slices]) delivers each round's
   sends in (virtual delivery time, send sequence) order, with per-edge
   latency/jitter/loss drawn from seeded SplitMix streams and a GST knob
   for partial synchrony (delivery within 1 + delta once the virtual
   clock passes [a_gst]). Lock-step, where messages sent in round r are
   delivered at the start of round r+1 in send order, is the zero-knob
   case ([pure_sync]): every latency is 1 and no stream is drawn.

   The per-message path is O(1) and allocation-free. The per-edge streams
   live unboxed in one small open-addressing table per source, keyed by
   the destination (below), so a source's fan-out is drawn from a few
   cache lines. A round's sends due by its barrier are counting-sorted by
   delivery time in buffers the network reuses (see [Network.deliver]);
   the event queue below holds only *parked* events — a condition's
   [Defer] past the barrier, mail held for a dark party — in a plain
   binary heap drained through a non-allocating [min_time]/[take] pair.
   Either way, delivery follows the queue's (time, seq) order.

   Determinism is the load-bearing property: the executor draws all
   timing from per-edge child streams of one seed, so identical
   (protocol, n, seed, cfg) inputs produce identical transcripts on any
   domain-pool size — which is what lets conformance and transcript
   replay stay byte-exact checks rather than statistical ones.

   The executor is a *round synchronizer*: the per-round delivery barrier
   is the maximum delivery time of that round's sends, so every message
   staged in round r is delivered before round r+1 activates. Round-based
   protocols therefore keep their round semantics under any
   latency/jitter/loss knobs; what the knobs change is the delivery
   *order* within the round (inboxes are filled in (delivery-time,
   send-seq) order), the virtual-clock trajectory, and the latency
   statistics the partial-synchrony checks run against. *)

module Rng = Repro_util.Rng

type async_cfg = {
  a_seed : int; (* master seed of the per-edge latency streams *)
  a_delta : int; (* post-GST bound: delivered within 1 + a_delta *)
  a_jitter : int; (* max extra latency drawn per message *)
  a_loss : float; (* pre-GST per-message loss (= retransmission) rate *)
  a_gst : int; (* global stabilization time, in virtual time units *)
}

let default_async =
  { a_seed = 0; a_delta = 0; a_jitter = 0; a_loss = 0.0; a_gst = 0 }

(* [Sparse] names [Async default_async]. It stays because the ledger's
   unit timings (bench/ledger/units.ml) still spell it. *)
type backend = Sparse | Async of async_cfg

let cfg_of = function Sparse -> default_async | Async cfg -> cfg

(* [pure_sync cfg] holds when the executor is configured as exact
   synchrony: every latency is 1 and no stream is ever drawn, so delivery
   is lock-step. *)
let pure_sync cfg = cfg.a_delta <= 0 && cfg.a_jitter <= 0 && cfg.a_loss <= 0.0

(* --- event queue ---

   A binary min-heap on (delivery time, send sequence), kept in parallel
   arrays. Pops come out in that order, so the drain order is a total
   deterministic function of the pushed set. Only parked events reach it
   (see the header): none in most runs, at most a few thousand at once in
   the E19 condition matrix, so it is the textbook heap. [push] requires
   [seq] to strictly increase across pushes, the executor's send counter:
   a repeated seq would make two events tie. A value slot is cleared once
   its event leaves, so the queue keeps no popped value alive. *)

module Heap = struct
  type 'a t = {
    mutable times : int array;
    mutable seqs : int array;
    mutable vals : 'a option array;
    mutable size : int;
    mutable last_seq : int;
  }

  let create () =
    {
      times = Array.make 16 0;
      seqs = Array.make 16 0;
      vals = Array.make 16 None;
      size = 0;
      last_seq = min_int;
    }

  let size h = h.size

  let min_time h =
    if h.size = 0 then invalid_arg "Sched.Heap.min_time: empty queue";
    h.times.(0)

  (* Whether slot [i] comes before the event (time, seq). *)
  let before h i time seq =
    h.times.(i) < time || (h.times.(i) = time && h.seqs.(i) < seq)

  let set h i time seq v =
    h.times.(i) <- time;
    h.seqs.(i) <- seq;
    h.vals.(i) <- v

  let move h ~src ~dst = set h dst h.times.(src) h.seqs.(src) h.vals.(src)

  let push h ~time ~seq v =
    if seq <= h.last_seq then
      invalid_arg "Sched.Heap.push: seq must strictly increase across pushes";
    h.last_seq <- seq;
    let n = h.size in
    if n = Array.length h.times then begin
      let grow a fill =
        let a' = Array.make (2 * n) fill in
        Array.blit a 0 a' 0 n;
        a'
      in
      h.times <- grow h.times 0;
      h.seqs <- grow h.seqs 0;
      h.vals <- grow h.vals None
    end;
    let i = ref n in
    while !i > 0 && not (before h ((!i - 1) / 2) time seq) do
      move h ~src:((!i - 1) / 2) ~dst:!i;
      i := (!i - 1) / 2
    done;
    set h !i time seq (Some v);
    h.size <- n + 1

  let take h =
    if h.size = 0 then invalid_arg "Sched.Heap.take: empty queue";
    let v = Option.get h.vals.(0) in
    let n = h.size - 1 in
    h.size <- n;
    (* Move the last event out of its slot and sift it down from the root. *)
    let time = h.times.(n) and seq = h.seqs.(n) and last = h.vals.(n) in
    h.vals.(n) <- None;
    if n > 0 then begin
      let i = ref 0 and continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 in
        if l >= n then continue := false
        else begin
          let c =
            if l + 1 < n && before h (l + 1) h.times.(l) h.seqs.(l) then l + 1
            else l
          in
          if before h c time seq then begin
            move h ~src:c ~dst:!i;
            i := c
          end
          else continue := false
        end
      done;
      set h !i time seq last
    end;
    v

  let peek h =
    if h.size = 0 then None
    else Some (h.times.(0), h.seqs.(0), Option.get h.vals.(0))

  let pop h =
    if h.size = 0 then None
    else
      let time = h.times.(0) and seq = h.seqs.(0) in
      Some (time, seq, take h)
end

(* --- per-edge latency streams ---

   One SplitMix stream per directed edge, its starting state that of
   [Rng.of_label master "edge-<src>-<dst>"]. [Rng.of_label] never advances
   the parent, so the stream a given edge sees is independent of edge
   creation order. Draws on one edge happen in message send order (the
   executor walks the staged list in send order), which makes the whole
   timing schedule a deterministic function of (seed, transcript).

   The streams live in one small table per source, keyed by destination,
   so a source's fan-out is drawn from a few cache lines: sends are
   staged party by party, and the executor draws a source's whole fan-out
   back to back. A directory keyed by source names each source's table,
   and the last source looked up is remembered, so the directory is
   consulted about once per source per round. Both are open-addressing
   tables of 16-byte slots: a non-negative int key (bytes [0, 8), -1 =
   free) found by linear probing and an 8-byte value (bytes [8, 16)),
   starting at four slots and doubling at half load. Memory is therefore
   proportional to the edges touched, whatever the party indices. In a
   source's table the value is the edge's SplitMix state, stepped in
   place by {!Rng.bits_at}; in the directory it is the source's index in
   [e_rows]. A new edge's state is the master's state after the label
   prefix "edge-", with the decimal digits of src, "-" and dst folded in
   place ({!Rng.label_int_at}): no label string is built. A draw on a
   known edge is an int multiply, a few int compares and two in-place
   state steps: no allocation, no polymorphic hash or compare, no write
   barrier. *)

type table = {
  mutable slots : Bytes.t; (* per slot: key (-1 = free), value *)
  mutable fill : int; (* occupied slots; kept <= half the capacity *)
}

type edges = {
  e_prefix : Rng.t; (* the master stream with "edge-" folded in *)
  e_dir : table; (* source -> its index in [e_rows] *)
  mutable e_rows : table array; (* per source, in first-use order: dst -> state *)
  mutable e_last_src : int; (* the source looked up last, -1 = none *)
  mutable e_last_row : int; (* ... and its index in [e_rows] *)
}

let slot_bytes = 16

let table_create () = { slots = Bytes.make (4 * slot_bytes) '\255'; fill = 0 }

let edges_create ~seed =
  {
    e_prefix = Rng.of_label (Rng.create seed) "edge-";
    e_dir = table_create ();
    e_rows = [||];
    e_last_src = -1;
    e_last_row = 0;
  }

let[@inline] slot_key slots i =
  Int64.to_int (Bytes.get_int64_le slots (slot_bytes * i))

(* Multiplicative hashing; the high product bits are folded down so that
   keys differing only in high bits still spread. *)
let[@inline] home key mask =
  let h = key * 0x7FEB352D4C6B1E5 in
  (h lxor (h lsr 29)) land mask

(* The slot holding [key], or the free slot where it would go. *)
let rec probe slots key mask i =
  let k = slot_key slots i in
  if k = key || k < 0 then i else probe slots key mask ((i + 1) land mask)

let[@inline] mask_of slots = (Bytes.length slots / slot_bytes) - 1

(* Byte offset of [key]'s value in [t.slots], or -1 if it is absent. *)
let find t key =
  let mask = mask_of t.slots in
  let i = probe t.slots key mask (home key mask) in
  if slot_key t.slots i = key then (slot_bytes * i) + 8 else -1

(* Inserts the absent [key]; returns the byte offset of its value, which
   the caller initializes. *)
let add t key =
  if 2 * (t.fill + 1) > mask_of t.slots + 1 then begin
    let old = t.slots in
    let slots = Bytes.make (2 * Bytes.length old) '\255' in
    let mask = mask_of slots in
    for s = 0 to mask_of old do
      let k = slot_key old s in
      if k >= 0 then
        Bytes.blit old (slot_bytes * s) slots (slot_bytes * probe slots k mask (home k mask))
          slot_bytes
    done;
    t.slots <- slots
  end;
  let mask = mask_of t.slots in
  let off = slot_bytes * probe t.slots key mask (home key mask) in
  Bytes.set_int64_le t.slots off (Int64.of_int key);
  t.fill <- t.fill + 1;
  off + 8

(* Index in [e_rows] of [src]'s table, creating it on first use. *)
let src_row e src =
  if src <> e.e_last_src then begin
    let off = find e.e_dir src in
    let r =
      if off >= 0 then Int64.to_int (Bytes.get_int64_le e.e_dir.slots off)
      else begin
        let r = e.e_dir.fill in
        if r = Array.length e.e_rows then begin
          let rows = Array.make (Int.max 16 (2 * r)) e.e_dir in
          Array.blit e.e_rows 0 rows 0 r;
          e.e_rows <- rows
        end;
        e.e_rows.(r) <- table_create ();
        let off = add e.e_dir src in
        Bytes.set_int64_le e.e_dir.slots off (Int64.of_int r);
        r
      end
    in
    e.e_last_src <- src;
    e.e_last_row <- r
  end;
  e.e_last_row

(* Byte offset of the (src, dst) stream's state in [row.slots], creating
   the stream on first use. *)
let edge_slot e row ~src ~dst =
  let off = find row dst in
  if off >= 0 then off
  else begin
    let off = add row dst in
    Rng.state_into e.e_prefix row.slots off;
    Rng.label_int_at row.slots off src;
    Rng.label_at row.slots off "-";
    Rng.label_int_at row.slots off dst;
    off
  end

(* Latency of one message staged at virtual time [now].

   Exact synchrony (all knobs zero) short-circuits to 1 with no draws.
   Otherwise both the jitter and the loss coin are drawn in a fixed order
   on the edge's stream for every message — branches consume identically,
   so schedules with different GST settings stay stream-aligned — and:

   - post-GST ([now >= a_gst]): delivery within the partial-synchrony
     bound, latency = 1 + min jitter delta <= 1 + delta; loss is drawn but
     ignored (after GST the network is reliable).
   - pre-GST, lost: the message is retransmitted after one timeout of the
     post-GST bound: latency = 1 + jitter + 1 + delta. Loss delays, it
     never drops — honest-to-honest channels stay reliable, as the model
     requires.
   - pre-GST, not lost: latency = 1 + jitter, unbounded by delta. *)
let draw_latency edges cfg ~src ~dst ~now =
  if pure_sync cfg then 1
  else begin
    if src lor dst < 0 then
      invalid_arg "Sched.draw_latency: negative party index";
    let r = src_row edges src in
    let row = edges.e_rows.(r) in
    let off = edge_slot edges row ~src ~dst in
    let st = row.slots in
    (* the draws [Rng.int] and [Rng.float] would make on this stream *)
    let j =
      if cfg.a_jitter > 0 then Rng.int_of_bits (Rng.bits_at st off) (cfg.a_jitter + 1)
      else 0
    in
    let lost = cfg.a_loss > 0.0 && Rng.float_lt (Rng.bits_at st off) cfg.a_loss in
    if now >= cfg.a_gst then 1 + Int.min j (Int.max 0 cfg.a_delta)
    else if lost then 1 + j + 1 + Int.max 0 cfg.a_delta
    else 1 + j
  end

(* --- delivery statistics ---

   Online accounting the partial-synchrony checks run against: every
   delivery bumps the counters; a bounded sample keeps the first
   [log_cap] (send, deliver) virtual-time pairs for property checks
   without unbounded growth. The sample is two int arrays grown by
   doubling up to the cap, so recording a delivery allocates no record
   or cons cell; {!deliveries} builds the list when asked. All of it is a
   deterministic function of the schedule. *)

type delivery = { dl_send_vt : int; dl_deliver_vt : int }

type sample = {
  mutable sm_send : int array;
  mutable sm_deliver : int array;
  mutable sm_len : int; (* pairs recorded, oldest at index 0 *)
  sm_cap : int;
}

type stats = {
  mutable st_sends : int;
  mutable st_max_latency : int;
  mutable st_pre_gst_lost : int;
      (* pre-GST deliveries slower than 1 + jitter: most loss
         retransmits, and whatever a condition slowed past that *)
  mutable st_post_gst_late : int; (* post-GST sends beyond 1 + delta: must be 0 *)
  st_sample : sample;
}

let stats_create ?(log_cap = 65536) () =
  {
    st_sends = 0;
    st_max_latency = 0;
    st_pre_gst_lost = 0;
    st_post_gst_late = 0;
    st_sample =
      { sm_send = [||]; sm_deliver = [||]; sm_len = 0; sm_cap = Int.max 0 log_cap };
  }

let sample_grow sm =
  let cap = Int.min sm.sm_cap (Int.max 256 (2 * Array.length sm.sm_send)) in
  let grow a =
    let a' = Array.make cap 0 in
    Array.blit a 0 a' 0 sm.sm_len;
    a'
  in
  sm.sm_send <- grow sm.sm_send;
  sm.sm_deliver <- grow sm.sm_deliver

let note_delivery st cfg ~send_vt ~deliver_vt =
  let lat = deliver_vt - send_vt in
  st.st_sends <- st.st_sends + 1;
  if lat > st.st_max_latency then st.st_max_latency <- lat;
  if send_vt < cfg.a_gst && lat > 1 + cfg.a_jitter then
    st.st_pre_gst_lost <- st.st_pre_gst_lost + 1;
  if send_vt >= cfg.a_gst && lat > 1 + Int.max 0 cfg.a_delta then
    st.st_post_gst_late <- st.st_post_gst_late + 1;
  let sm = st.st_sample in
  let k = sm.sm_len in
  if k < sm.sm_cap then begin
    if k = Array.length sm.sm_send then sample_grow sm;
    sm.sm_send.(k) <- send_vt;
    sm.sm_deliver.(k) <- deliver_vt;
    sm.sm_len <- k + 1
  end

let deliveries st =
  let sm = st.st_sample in
  List.init sm.sm_len (fun k ->
      { dl_send_vt = sm.sm_send.(k); dl_deliver_vt = sm.sm_deliver.(k) })

(* The partial-synchrony contract as a pure predicate: every sampled
   message sent at or after GST was delivered within 1 + delta. The
   executor maintains this by construction ([st_post_gst_late] stays 0);
   the predicate exists so tests can also check it with teeth — a planted
   late delivery must make it false. *)
let post_gst_ok ~gst ~delta log =
  List.for_all
    (fun d -> d.dl_send_vt < gst || d.dl_deliver_vt - d.dl_send_vt <= 1 + max 0 delta)
    log

(* --- network conditions ---

   A condition programs the executor from outside the latency model: it can
   reroute individual deliveries (partitions, extra delay), take parties
   down for a window (crash-recovery churn), and upgrade the corrupt set
   after observing honest traffic (the King–Saia adaptive adversary). The
   executor consults it per staged message *after* drawing the baseline
   latency, so attaching a condition never perturbs the edge streams.
   Attaching one also ends the network's lock-step shortcut: from then on
   every send is drawn and routed, so [pass_condition] forces the general
   (time, seq) path without changing the transcript.

   [Deliver lat] keeps the message inside the current round (it extends the
   round barrier like any latency draw); [Defer vt] parks it on the heap
   until virtual time [vt] *without* extending the barrier, so the message
   crosses round boundaries — the partition primitive. Deferred messages
   are charged to the delivery statistics when they actually pop, not when
   staged, so pre/post-GST accounting reflects the schedule they really
   followed. *)

type route =
  | Deliver of int  (* deliver this round after max 1 lat ticks *)
  | Defer of int  (* park until this virtual time; may cross rounds *)

type condition = {
  c_name : string;
  c_route : now:int -> round:int -> src:int -> dst:int -> lat:int -> route;
      (* per-message verdict; [lat] is the latency the edge stream drew *)
  c_down : now:int -> round:int -> int -> bool;
      (* party is dark this round: handler skipped, deliveries held *)
  c_observe :
    now:int -> round:int -> msgs:Inbox.t -> corrupt:(int -> unit) -> unit;
      (* adaptive hook: sees the round's honest sends, may upgrade parties *)
}

(* Offsets past the clock up to which the network buckets a round's due
   sends; latencies above it go through the heap. *)
let bucket_span = 64

(* One shared [Deliver lat] per latency the network buckets, so a condition
   that routes through [deliver] allocates no verdict per message. *)
let delivers = Array.init (bucket_span + 1) (fun lat -> Deliver lat)

let deliver lat = if lat >= 0 && lat <= bucket_span then delivers.(lat) else Deliver lat

(* The identity condition: routes every message at its drawn latency, keeps
   every party up, never corrupts. Attaching it is observationally a no-op. *)
let pass_condition =
  {
    c_name = "pass";
    c_route = (fun ~now:_ ~round:_ ~src:_ ~dst:_ ~lat -> deliver lat);
    c_down = (fun ~now:_ ~round:_ _ -> false);
    c_observe = (fun ~now:_ ~round:_ ~msgs:_ ~corrupt:_ -> ());
  }
