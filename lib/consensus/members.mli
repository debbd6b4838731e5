(** A committee's membership as the consensus machines hold it: member ids
    sorted ascending, without duplicates. One array serves a whole stack of
    machines (a {!Committee}, its {!Multi_ba} and the {!Phase_king} inside)
    and is never mutated. *)

type t = int array

val of_list : int list -> t

val pos : t -> int -> int
(** [pos t p] is [p]'s index in [t] by binary search, or [-1] when [p] is
    not a member. *)

val peers : t -> me:int -> int array
(** Every member other than [me], ascending: the destination array of a
    member's committee-wide multicasts. A machine stack builds it once and
    shares it; it is never mutated. *)

val iter : t -> Repro_net.Inbox.t -> 'a -> ('a -> int -> bytes -> unit) -> unit
(** [iter t inbox ctx f] applies [f ctx i payload] to every message of
    [inbox] whose source is a member, in inbox order, with [i] the
    source's position in [t]: [pos t (Inbox.src inbox k)] for message [k].
    [f] gets its state as [ctx], so a closed function allocates nothing
    per call. *)

val iter_first : t -> me:int -> Repro_net.Inbox.t -> 'a -> ('a -> int -> bytes -> unit) -> unit
(** [iter_first t ~me inbox ctx f] is {!iter} restricted to the first
    message of each member other than [me]: later messages from a counted
    source, messages from [me] and from non-members are skipped. *)
