(** Committee coin tossing (f_ct, after Chor et al.): Shamir sharing with
    hash-commitment VSS, complaint-based qualification, reveal and
    reconstruction, then byte-exact agreement via {!Committee}. Unbiased
    against rushing adversaries controlling < 1/3 of the committee. *)

type t

type shared
(** Pure work the members of one coin-toss run share: each distinct reveal
    payload is decoded, and its share commitments hashed, once per run
    rather than once per receiving member. Create one per run (it retains
    every reveal payload it has seen) and hand it to every member's
    {!create}. *)

val shared : unit -> shared

val rounds : members:int list -> int

val create :
  shared:shared -> members:int list -> me:int -> rng:Repro_util.Rng.t -> t
val machine : t -> Repro_net.Engine.machine
val m_send : t -> round:int -> Repro_net.Engine.out -> unit
val m_recv : t -> round:int -> Repro_net.Inbox.t -> unit

val output : t -> bytes option
(** The agreed kappa-byte coin, once the machine has run [rounds] rounds. *)
