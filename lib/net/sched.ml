(* Scheduler backends for the simulated network.

   The network's one stepper ([Network.run_active]) delivers each
   round's sends under one of two interchangeable disciplines:

   - [Sparse]: lock-step — messages sent in round r are delivered at the
     start of round r+1 in send order.
   - [Async cfg]: a deterministic asynchronous executor — every send is an
     event on a queue keyed by (virtual delivery time, send sequence),
     with per-edge latency/jitter/loss drawn from seeded SplitMix streams
     and a GST knob for partial synchrony (delivery within 1 + delta once
     the virtual clock passes [a_gst]).

   The async executor's per-message path is O(1) and allocation-free. The
   per-edge streams live unboxed in one open-addressing table keyed by the
   packed (src, dst) pair (below). A round's sends due by its barrier are
   counting-sorted by delivery time in buffers the network reuses (see
   [Network.deliver_async]); the event queue below holds only *parked*
   events — a condition's [Defer] past the barrier, mail held for a dark
   party — in a plain binary heap drained through a non-allocating
   [min_time]/[take] pair. Either way, delivery follows the queue's
   (time, seq) order.

   Determinism is the load-bearing property: the async executor draws all
   timing from per-edge child streams of one seed, so identical
   (protocol, n, seed, cfg) inputs produce identical transcripts on any
   domain-pool size — which is what lets cross-backend conformance and
   transcript replay stay byte-exact checks rather than statistical ones.

   The async executor is a *round synchronizer*: the per-round delivery
   barrier is the maximum delivery time of that round's sends, so every
   message staged in round r is delivered before round r+1 activates. Round-based protocols therefore keep their round semantics
   under any latency/jitter/loss knobs; what the knobs change is the
   delivery *order* within the round (inboxes are filled in
   (delivery-time, send-seq) order), the virtual-clock trajectory, and the
   latency statistics the partial-synchrony checks run against. With all
   knobs zero the latency is exactly 1 with no stream draws, delivery
   order degenerates to send order, and the transcript is byte-identical
   to the lock-step backend — pinned by the golden conformance suite. *)

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

type backend = Sparse | Async of async_cfg

let backend_name = function
  | Sparse -> "sparse"
  | Async _ -> "async"

let backend_of_string ?(async = default_async) = function
  | "sparse" -> Some Sparse
  | "async" -> Some (Async async)
  | _ -> None

(* [pure_sync cfg] holds when the async executor is configured as exact
   synchrony: every latency is 1 and no stream is ever drawn, so the
   executor must reproduce the lock-step transcript byte-for-byte. *)
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

   The streams live in one open-addressing table of 16-byte slots: the
   edge packs into an int key (bytes [0, 8) of its slot, -1 = free) found
   by linear probing, and its SplitMix state (bytes [8, 16)) is stepped in
   place by {!Rng.bits_at}. A new edge's state is the master's state after
   the label prefix "edge-", with the decimal digits of src, "-" and dst
   folded in place ({!Rng.label_int_at}): no label string is built. A hit
   is an int multiply, a few int compares and two in-place state steps:
   no allocation, no polymorphic hash or compare, no write barrier. *)

type edges = {
  e_prefix : Rng.t; (* the master stream with "edge-" folded in *)
  mutable e_table : Bytes.t; (* per slot: packed (src, dst) key, state *)
  mutable e_count : int; (* occupied slots; kept <= half the capacity *)
}

let edge_bits = 31
let slot_bytes = 16

let table_create cap = Bytes.make (slot_bytes * cap) '\255'

let edges_create ~seed =
  {
    e_prefix = Rng.of_label (Rng.create seed) "edge-";
    e_table = table_create 1024;
    e_count = 0;
  }

let[@inline] slot_key table i =
  Int64.to_int (Bytes.get_int64_le table (slot_bytes * i))

(* Multiplicative hashing; the high product bits are folded down because
   packed keys differ mostly in their low (dst) and middle (src) bits. *)
let edge_home key mask =
  let h = key * 0x7FEB352D4C6B1E5 in
  (h lxor (h lsr 29)) land mask

let rec edge_probe table key mask i =
  let k = slot_key table i in
  if k = key || k < 0 then i else edge_probe table key mask ((i + 1) land mask)

let edges_grow e =
  let table = e.e_table in
  let cap = 2 * (Bytes.length table / slot_bytes) in
  let table' = table_create cap in
  for slot = 0 to (Bytes.length table / slot_bytes) - 1 do
    let key = slot_key table slot in
    if key >= 0 then begin
      let i = edge_probe table' key (cap - 1) (edge_home key (cap - 1)) in
      Bytes.blit table (slot_bytes * slot) table' (slot_bytes * i) slot_bytes
    end
  done;
  e.e_table <- table'

(* Byte offset of the (src, dst) stream's state in [e_table], creating the
   stream on first use. *)
let edge_slot e ~src ~dst =
  if src lor dst < 0 || (src lor dst) lsr edge_bits <> 0 then
    invalid_arg "Sched.draw_latency: party index out of range";
  let key = (src lsl edge_bits) lor dst in
  let mask = (Bytes.length e.e_table / slot_bytes) - 1 in
  let i = edge_probe e.e_table key mask (edge_home key mask) in
  if slot_key e.e_table i = key then (slot_bytes * i) + 8
  else begin
    let i =
      if 2 * (e.e_count + 1) > mask + 1 then begin
        edges_grow e;
        let mask = (Bytes.length e.e_table / slot_bytes) - 1 in
        edge_probe e.e_table key mask (edge_home key mask)
      end
      else i
    in
    let table = e.e_table and off = slot_bytes * i in
    Bytes.set_int64_le table off (Int64.of_int key);
    e.e_count <- e.e_count + 1;
    Rng.state_into e.e_prefix table (off + 8);
    Rng.label_int_at table (off + 8) src;
    Rng.label_at table (off + 8) "-";
    Rng.label_int_at table (off + 8) dst;
    off + 8
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
    let off = edge_slot edges ~src ~dst in
    let st = edges.e_table in
    (* the draws [Rng.int] and [Rng.float] would make on this stream *)
    let j =
      if cfg.a_jitter > 0 then Rng.int_of_bits (Rng.bits_at st off) (cfg.a_jitter + 1)
      else 0
    in
    let lost = cfg.a_loss > 0.0 && Rng.float_lt (Rng.bits_at st off) cfg.a_loss in
    if now >= cfg.a_gst then 1 + min j (max 0 cfg.a_delta)
    else if lost then 1 + j + 1 + max 0 cfg.a_delta
    else 1 + j
  end

(* --- delivery statistics ---

   Online accounting the partial-synchrony checks run against: every
   delivery bumps the counters; a bounded sample log keeps (send, deliver)
   virtual-time pairs for property checks without unbounded growth. All of
   it is a deterministic function of the schedule. *)

type delivery = { dl_send_vt : int; dl_deliver_vt : int }

type stats = {
  mutable st_sends : int;
  mutable st_max_latency : int;
  mutable st_pre_gst_lost : int;
      (* pre-GST deliveries slower than 1 + jitter: most loss
         retransmits, and whatever a condition slowed past that *)
  mutable st_post_gst_late : int; (* post-GST sends beyond 1 + delta: must be 0 *)
  mutable st_log : delivery list; (* newest first, bounded *)
  mutable st_log_len : int;
  st_log_cap : int;
}

let stats_create ?(log_cap = 65536) () =
  {
    st_sends = 0;
    st_max_latency = 0;
    st_pre_gst_lost = 0;
    st_post_gst_late = 0;
    st_log = [];
    st_log_len = 0;
    st_log_cap = log_cap;
  }

let note_delivery st cfg ~send_vt ~deliver_vt =
  let lat = deliver_vt - send_vt in
  st.st_sends <- st.st_sends + 1;
  if lat > st.st_max_latency then st.st_max_latency <- lat;
  if send_vt < cfg.a_gst && lat > 1 + cfg.a_jitter then
    st.st_pre_gst_lost <- st.st_pre_gst_lost + 1;
  if send_vt >= cfg.a_gst && lat > 1 + max 0 cfg.a_delta then
    st.st_post_gst_late <- st.st_post_gst_late + 1;
  if st.st_log_len < st.st_log_cap then begin
    st.st_log <- { dl_send_vt = send_vt; dl_deliver_vt = deliver_vt } :: st.st_log;
    st.st_log_len <- st.st_log_len + 1
  end

let deliveries st = List.rev st.st_log

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
   latency, so attaching a condition never perturbs the edge streams — and
   a run with no condition attached draws and routes exactly as before,
   keeping the zero-knob transcript byte-identical to lock-step.

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
    now:int -> round:int -> msgs:Wire.msg list -> corrupt:(int -> unit) -> unit;
      (* adaptive hook: sees the round's honest sends, may upgrade parties *)
}

(* The identity condition: routes every message at its drawn latency, keeps
   every party up, never corrupts. Attaching it is observationally a no-op. *)
let pass_condition =
  {
    c_name = "pass";
    c_route = (fun ~now:_ ~round:_ ~src:_ ~dst:_ ~lat -> Deliver lat);
    c_down = (fun ~now:_ ~round:_ _ -> false);
    c_observe = (fun ~now:_ ~round:_ ~msgs:_ ~corrupt:_ -> ());
  }
