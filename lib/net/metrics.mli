(** Per-party communication metering: the quantities the paper's theorems
    bound (bits per party, locality, rounds). *)

type t

val create : int -> t

val note_send : t -> src:int -> dst:int -> tag:string -> size:int -> unit
(** Charge one accepted send of [size] bytes ({!Wire.size}) to [src]. *)

val note_recv : t -> src:int -> dst:int -> size:int -> unit
(** Charge one delivery of [size] bytes to [dst]. *)

val note_round : t -> unit
val rounds : t -> int

val party_bytes : t -> int -> int
(** Sent + received bytes of one party. *)

val party_bytes_sent : t -> int -> int

val party_msgs_recv : t -> int -> int
(** Messages delivered to one party. *)

val party_locality : t -> int -> int
(** Number of distinct peers the party exchanged messages with. *)

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

