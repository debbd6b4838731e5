(** Realization of the reactive functionality f_ae-comm (paper Sec. 3.1):
    tree establishment via the election substrate, then supreme-committee
    dissemination down the tree with per-party polylog cost. *)

type t

val tree : t -> Tree.t

val memberships : t -> int -> (int * int) list
(** Internal nodes (level, idx) a party sits on. *)

val create : Repro_net.Network.t -> Tree.t -> t

val establish :
  ?adversary_tree:Tree.t ->
  Repro_net.Network.t ->
  Params.t ->
  rng:Repro_util.Rng.t ->
  t
(** Run the election protocol and build the tree (or accept a valid
    adversary-proposed tree, per the functionality's contract). *)

val establish_with_assignment :
  ?adversary_tree:Tree.t ->
  Repro_net.Network.t ->
  Params.t ->
  slot_party:int array ->
  rng:Repro_util.Rng.t ->
  t
(** Like {!establish}, but the slot assignment (Fig. 3's idmap) is fixed by
    the public setup; the election only seeds the node committees. *)

val isolated : t -> corrupt:(int -> bool) -> int -> bool
(** Member of the o(1)-fraction set D the functionality cannot reach. *)

val disseminate :
  ?adversary:Repro_net.Network.adversary ->
  Repro_net.Network.t ->
  t ->
  label:string ->
  values:(int -> bytes option) ->
  bytes option array
(** Push a value from the supreme committee to (almost) all parties; entry p
    of the result is what party p adopted. *)

val plurality : bytes list -> bytes option
(** The most frequent value ([None] for no values). Values are grouped by
    physical identity first and by content otherwise; a tie goes to the
    value whose group formed last (the latest first-seen value). *)
