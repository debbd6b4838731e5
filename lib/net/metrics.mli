(** Per-party communication metering: the quantities the paper's theorems
    bound (bits per party, locality, rounds). This is the one place a
    message's bits are charged: reports, the per-round summaries observers
    receive in [Round_end] (see {!Repro_obs.Event}) and through them the
    auditor all read these counts. *)

type t

val create : per_round:bool -> int -> t
(** Metering for [n] parties. With [per_round] it also keeps the charges
    since the last {!close_round}; a network asks for that only when it
    has subscribers, so an unobserved run pays nothing per round. *)

val note_send : t -> src:int -> dst:int -> tag:string -> size:int -> unit
(** Charge one accepted send of [size] bytes ({!Wire.size}) to [src]. *)

val note_recv : t -> src:int -> dst:int -> size:int -> unit
(** Charge one delivery of [size] bytes to [dst]. *)

val note_round : t -> unit
val rounds : t -> int

val close_round : t -> round:int -> scheduled:int -> Repro_obs.Event.round_summary
(** The charges since the previous call, summed per party (ascending),
    with each party's cumulative bits and peers; resets them.
    [Invalid_argument] unless created with [per_round]. *)

val party_bytes : t -> int -> int
(** Sent + received bytes of one party. *)

val party_bytes_sent : t -> int -> int

val party_msgs_recv : t -> int -> int
(** Messages delivered to one party. *)

val party_locality : t -> int -> int
(** Number of distinct peers the party sent to or received from. *)

val tag_group : string -> string
(** Normalization used for the per-phase breakdown. *)

val tag_breakdown : t -> (string * int) list
(** Total sent bytes per tag group, largest first. *)

val breakdown_json : (string * int) list -> Repro_util.Json.t
(** A breakdown as a flat JSON object, keys sorted by name. *)

val pp_breakdown : Format.formatter -> (string * int) list -> unit
(** Table rendering of a breakdown with per-phase share and total. *)

type report = {
  max_bytes : int;
  mean_bytes : float;
  p50_bytes : float;
  p95_bytes : float;
  p99_bytes : float;
  stddev_bytes : float;
  total_bytes : int;
  max_msgs_sent : int;
  max_locality : int;
  mean_locality : float;
  rounds : int;
}

val report : ?include_party:(int -> bool) -> t -> report
(** Aggregate over the parties selected by [include_party] (default: all);
    callers normally pass the honest set. [total_bytes] always covers the
    whole network. An empty selection yields zero per-party aggregates
    (never NaN); [total_bytes] and [rounds] keep their network-wide
    values. *)

