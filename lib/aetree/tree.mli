(** The (n, I)-party almost-everywhere-communication tree (paper Defs. 2.3 and
    3.4): leaves cover contiguous virtual-ID ranges; every node carries an
    assigned party set; goodness = less than 1/3 of the assigned parties
    corrupt. *)

type t

val params : t -> Params.t

val slot_party : t -> int -> int
(** Owner (real party) of a virtual ID. *)

val party_slots : t -> int -> int list
(** Virtual IDs owned by a party, ascending. *)

val nodes_at_level : t -> level:int -> int

val children : t -> level:int -> idx:int -> int list
(** Child indices at [level - 1]; defined for [level >= 2]. *)

val parent : t -> level:int -> idx:int -> int option

val assigned : t -> level:int -> idx:int -> int array
(** Parties assigned to a node: for a leaf its slot owners, each once, in
    slot order; for an internal node its committee. Every node's array is
    built once, with the tree, and returned shared: callers must not
    mutate it. *)

val supreme_committee : t -> int array
(** [assigned] of the root: shared likewise, not to be mutated. *)

val range : t -> level:int -> idx:int -> int * int
(** Inclusive virtual-ID range covered by the node's subtree (Fig. 3's
    range(v)); contiguous by construction. *)

val random : Params.t -> Repro_util.Rng.t -> t

val assignment : Params.t -> Repro_util.Rng.t -> int array
(** The slot->party map alone (the idmap fixed by public setup in Fig. 3,
    before committees are elected). *)

val build : Params.t -> slot_party:int array -> committee_rng:Repro_util.Rng.t -> t
(** Tree from a pre-existing assignment plus election-time committees. *)

val of_seed : Params.t -> bytes -> t
(** Deterministic from a public seed (what the election protocol fixes). *)

val make_custom :
  Params.t ->
  slot_party:int array ->
  committee_of:(level:int -> idx:int -> int array) ->
  t
(** Adversary-chosen tree for the Fig. 1 robustness experiment. *)

val is_good : t -> corrupt:(int -> bool) -> level:int -> idx:int -> bool
val has_good_path : t -> corrupt:(int -> bool) -> int -> bool
val good_leaf_fraction : t -> corrupt:(int -> bool) -> float

val party_connected : t -> corrupt:(int -> bool) -> int -> bool
(** Majority of the party's leaves lie on good paths (such parties are
    reachable from the supreme committee through the tree). *)

val connected_fraction : t -> corrupt:(int -> bool) -> float
(** Fraction of honest parties that are connected. *)
