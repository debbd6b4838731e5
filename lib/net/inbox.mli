(** A read-only view of one party's delivered messages for one round: the
    network's whole inbox slice for a party, or the part of it the
    {!Engine} demultiplexed to one protocol instance. Messages are indexed
    [0 .. length - 1] in delivery order.

    A view handed to a step function is valid only during that call: the
    arrays behind it are reused by the next round, and the record itself
    by the next party or instance. Read what you need, keep no view. *)

type t

val length : t -> int

val src : t -> int -> int
(** [src v i]: the sender of message [i]. *)

val payload : t -> int -> bytes
(** [payload v i]: the payload of message [i], physically the buffer the
    sender handed to the network (shared by every recipient of a
    multicast; never mutate it). *)

val tag : t -> int -> string
(** [tag v i]: the full wire tag of message [i]. *)

val of_list : ?tag:string -> (int * bytes) list -> t
(** A fresh view of the [(src, payload)] messages, in list order, all
    carrying [tag] (default [""]): for tests and reference models that
    feed a step function by hand. *)

(** {2 For the network and the engine}

    A view is a window [off, off + len) over parallel arrays: per message,
    its sender in [srcs] and its body index in [bodies]; per body, its tag
    in [tags] and its payload in [pays]. *)

val create : unit -> t
(** An empty view, to be pointed at data with {!set}. *)

val set :
  t -> srcs:int array -> bodies:int array -> tags:string array ->
  pays:bytes array -> off:int -> len:int -> unit

val set_within :
  t -> from:t -> srcs:int array -> bodies:int array -> off:int -> len:int -> unit
(** Like {!set}, with the body tables of [from]: [srcs] and [bodies] hold
    messages of [from], regrouped. *)

val body : t -> int -> int
(** [body v i]: message [i]'s body index, for code that holds the same
    body tables. *)
