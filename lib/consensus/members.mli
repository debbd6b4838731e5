(** A committee's membership as the consensus machines hold it: member ids
    sorted ascending, without duplicates. One array serves a whole stack of
    machines (a {!Committee}, its {!Multi_ba} and the {!Phase_king} inside)
    and is never mutated. *)

type t = int array

val of_list : int list -> t

val pos : t -> int -> int
(** [pos t p] is [p]'s index in [t] by binary search, or [-1] when [p] is
    not a member. *)

val to_peers : t -> me:int -> 'a -> (int * 'a) list
(** [(q, payload)] for every member [q <> me], ascending, all sharing the
    one [payload]. *)

val iter_first : t -> me:int -> (int * 'a) list -> ('a -> unit) -> unit
(** [iter_first t ~me msgs f] applies [f] to the payload of the first
    message of each member other than [me], in arrival order; later messages
    from a counted source, messages from [me] and from non-members are
    skipped. *)
