(** The network's one executor: a deterministic asynchronous executor
    with per-edge latency/jitter/loss streams and a GST knob for partial
    synchrony. Lock-step delivery in send order is its zero-knob case
    ({!pure_sync}).

    The knobs change {e how} a protocol executes, never {e what} it may
    observe beyond the model: with all knobs at zero the executor is
    lock-step, and with chaos knobs on it stays a deterministic function
    of (protocol, n, seed, cfg) on any domain-pool size.

    The per-message path is O(1) and allocation-free: per-edge streams
    stored unboxed in one small table per source ({!edges}), and a round's
    due sends counting-sorted by delivery time in the network's reused
    buffers. The event queue ({!Heap}, drained through {!Heap.min_time}
    and {!Heap.take}) holds only parked events: deferrals past the round
    barrier and mail held for a dark party. *)

type async_cfg = {
  a_seed : int;  (** master seed of the per-edge latency streams *)
  a_delta : int;
      (** post-GST delivery bound: every message sent at virtual time
          [>= a_gst] is delivered within [1 + a_delta] *)
  a_jitter : int;  (** max extra latency drawn per message *)
  a_loss : float;
      (** pre-GST per-message loss rate; a lost message is retransmitted
          after one timeout (latency [1 + jitter + 1 + delta]), never
          dropped — honest channels stay reliable *)
  a_gst : int;  (** global stabilization time, in virtual time units *)
}

val default_async : async_cfg
(** All knobs zero: exact synchrony (latency 1, no stream draws). *)

val pure_sync : async_cfg -> bool
(** Every latency is 1 and no stream is drawn: lock-step delivery. *)

type backend = Sparse | Async of async_cfg
(** An executor configuration. [Sparse] names [Async default_async]; it
    stays because the ledger's unit timings (bench/ledger/units.ml) still
    spell it. *)

val cfg_of : backend -> async_cfg

(** Deterministic event queue keyed by (delivery time, send sequence):
    pops come out in delivery order, ties broken by send order.

    Contract: [seq] strictly increases across the pushes to one queue (the
    executor's global send counter), so no two events tie. A binary
    min-heap; popped values are not kept reachable by the queue. *)
module Heap : sig
  type 'a t

  val create : unit -> 'a t
  val size : 'a t -> int

  val push : 'a t -> time:int -> seq:int -> 'a -> unit
  (** Raises [Invalid_argument] if [seq] is not greater than every [seq]
      pushed before. *)

  val min_time : 'a t -> int
  (** The delivery time of the next event; does not allocate. Raises
      [Invalid_argument] on an empty queue. *)

  val take : 'a t -> 'a
  (** Removes the next event and returns its value; its time is the
      {!min_time} read before. Does not allocate. Raises
      [Invalid_argument] on an empty queue. *)

  val pop : 'a t -> (int * int * 'a) option
  (** {!take} with the event's time and seq. *)

  val peek : 'a t -> (int * int * 'a) option
  (** The element {!pop} would return, without removing it. *)
end

type edges
(** Per-directed-edge SplitMix latency streams, children of one master
    seed keyed by ["edge-<src>-<dst>"]; stream contents are independent of
    edge creation order. Each source has its own open-addressing table of
    16-byte (destination, stream state) slots, found through a directory
    keyed by source that remembers the last source looked up, so a
    source's fan-out is drawn from a few cache lines. Tables grow by
    doubling from a few slots: memory is proportional to the edges
    touched, not to the largest party index. Party indices may be any
    non-negative [int]. *)

val edges_create : seed:int -> edges

val draw_latency : edges -> async_cfg -> src:int -> dst:int -> now:int -> int
(** Latency of one message staged at virtual time [now], drawn on the
    (src, dst) edge stream. Exact synchrony short-circuits to 1 with no
    draws; otherwise jitter and the loss coin are consumed in fixed order
    for every message, and the result is [1 + min jitter delta] post-GST,
    [1 + jitter (+ 1 + delta if lost)] pre-GST. Raises
    [Invalid_argument] on a negative party index. *)

type delivery = { dl_send_vt : int; dl_deliver_vt : int }

type sample
(** The first [log_cap] (send, deliver) pairs of a network, kept flat. *)

type stats = {
  mutable st_sends : int;
  mutable st_max_latency : int;
  mutable st_pre_gst_lost : int;
      (** messages sent before GST and delivered later than [1 + jitter]
          after their send, the most an unlost message the network alone
          routed can take. Loss retransmits land here when their timeout
          outweighs the jitter they did not draw, and so does every
          pre-GST message a condition slowed past that bound; it is not a
          count of lost messages *)
  mutable st_post_gst_late : int;
      (** post-GST sends delivered beyond [1 + delta] — 0 by construction *)
  st_sample : sample;  (** read through {!deliveries} *)
}

val stats_create : ?log_cap:int -> unit -> stats
(** [log_cap] (default 65,536) bounds the delivery sample. *)

val note_delivery : stats -> async_cfg -> send_vt:int -> deliver_vt:int -> unit

val deliveries : stats -> delivery list
(** The first [log_cap] deliveries noted, as (send, deliver) pairs in
    delivery order (oldest first); built on each call. *)

val post_gst_ok : gst:int -> delta:int -> delivery list -> bool
(** The partial-synchrony contract as a pure predicate: every sampled
    message sent at or after [gst] was delivered within [1 + delta].
    Tests check it with teeth — a planted late delivery makes it false. *)

(** {1 Network conditions}

    A condition programs the executor from outside the latency
    model: reroute deliveries (partitions, extra delay), take parties dark
    for a window (churn), upgrade the corrupt set after observing traffic
    (the King–Saia adaptive adversary). Consulted per staged message
    {e after} the baseline latency draw, so attaching one never perturbs
    the edge streams; runs with no condition attached execute exactly as
    before. Attaching one ends the network's lock-step shortcut. *)

type route =
  | Deliver of int
      (** deliver within the current round after [max 1 lat] ticks; extends
          the round barrier like a latency draw *)
  | Defer of int
      (** park on the heap until this virtual time without extending the
          barrier — the message crosses round boundaries (partitions) *)

type condition = {
  c_name : string;
  c_route : now:int -> round:int -> src:int -> dst:int -> lat:int -> route;
      (** per-message verdict; [lat] is the drawn baseline latency *)
  c_down : now:int -> round:int -> int -> bool;
      (** party is dark this round: handler skipped, deliveries held until
          it resumes *)
  c_observe :
    now:int -> round:int -> msgs:Wire.msg list -> corrupt:(int -> unit) -> unit;
      (** adaptive hook: sees the round's honest sends after the adversary's
          turn, may upgrade parties via [corrupt] *)
}

val pass_condition : condition
(** The identity condition — attaching it is observationally a no-op. *)
