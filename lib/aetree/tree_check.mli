(** Executable validation of the Def. 2.3 / 3.4 tree properties. *)

type violation = string

val check_structure : Tree.t -> violation list
(** Purely structural properties (arity, committee sizes, slot partition,
    assignment balance). *)

val check_goodness : Tree.t -> corrupt:(int -> bool) -> violation list
(** Root good; all but 3/log n of leaves on good paths. *)

val check : Tree.t -> corrupt:(int -> bool) -> violation list
