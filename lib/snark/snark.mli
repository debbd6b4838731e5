(** Ideal succinct-argument oracle standing in for SNARKs with linear
    extraction (see DESIGN.md, substitution table). Proofs exist only for
    true statements; they are O(kappa) bytes; adversaries can replay but not
    forge them. *)

type crs
type proof = bytes

type 'w relation = {
  rel_tag : string;
  holds : statement:bytes -> witness:'w -> bool;
}

val setup : Repro_util.Rng.t -> crs
val proof_size : int

val prove : crs -> 'w relation -> statement:bytes -> witness:'w -> proof option
(** [None] when the witness does not satisfy the relation — an honest prover
    cannot produce a proof for a false statement. *)

val verify : crs -> 'w relation -> statement:bytes -> proof -> bool

val fake_proof : Repro_util.Rng.t -> proof
(** An unauthenticated tag, for forgery-attempt experiments. *)
