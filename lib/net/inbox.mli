(** A read-only view of a round's messages: one party's delivered
    messages (the network's whole inbox slice for a party, or the part of
    it the {!Engine} demultiplexed to one protocol instance), or the
    honest sends a rushing adversary observes (see {!Network.adversary}).
    Messages are indexed [0 .. length - 1] in delivery (or send) order.

    A view handed to a step function is valid only during that call: the
    arrays behind it are reused by the next round, and the record itself
    by the next party or instance. Read what you need, keep no view. *)

type t = private {
  mutable srcs : int array;
  mutable dsts : int array;
  mutable self : int;
  mutable bodies : int array;
  mutable tags : string array;
  mutable pays : bytes array;
  mutable off : int;
  mutable len : int;
}
(** The window [off, off + len) over parallel arrays (see the section for
    the network and the engine below). Its fields are visible so that the
    engine's demultiplexer can read a whole slice without a call or a
    bounds check per message; a protocol reads messages through the
    functions below. *)

val length : t -> int

val src : t -> int -> int
(** [src v i]: the sender of message [i]. *)

val dst : t -> int -> int
(** [dst v i]: the recipient of message [i]; on an inbox, the party
    itself. Raises [Invalid_argument] on a view built by {!of_list}. *)

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
    its sender in [srcs], its body index in [bodies] and, on a view of
    sends, its recipient in [dsts]; per body, its tag in [tags] and its
    payload in [pays]. *)

val create : unit -> t
(** An empty view, to be pointed at data with {!set} or {!set_sends}. *)

val set :
  t -> self:int -> srcs:int array -> bodies:int array -> tags:string array ->
  pays:bytes array -> off:int -> len:int -> unit
(** Point the view at party [self]'s inbox. *)

val set_sends :
  t -> srcs:int array -> dsts:int array -> bodies:int array ->
  tags:string array -> pays:bytes array -> len:int -> unit
(** Point the view at the first [len] sends of the arrays. *)

val set_within :
  t -> from:t -> srcs:int array -> bodies:int array -> off:int -> len:int -> unit
(** Like {!set}, with the party and the body tables of the inbox [from]:
    [srcs] and [bodies] hold messages of [from], regrouped. *)

val body : t -> int -> int
(** [body v i]: message [i]'s body index, for code that holds the same
    body tables. *)
