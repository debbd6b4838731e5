(* Simulated SNARK: an *ideal succinct-argument oracle*.

   The paper's bare-PKI SRDS needs SNARKs with linear extraction (a
   non-falsifiable assumption with no OCaml ecosystem — the repro band's
   "sparse crypto ecosystem for SNARGs"). Per the substitution rule we model
   the primitive's *interface and guarantees* rather than its internals:

   - [prove] runs the NP relation on the witness and refuses to emit a proof
     unless it holds. Hence a proof exists only for true statements —
     exactly what knowledge soundness gives the surrounding protocol.
   - Proofs are authenticated with an HMAC key sealed inside the abstract
     [crs] value. Adversarial code in our experiments manipulates proofs as
     opaque byte strings: it can replay them (SNARKs allow that too) but
     cannot mint tags for new statements, because the module abstraction
     hides the key. OCaml's type abstraction plays the role of the
     extractor in the security argument.
   - Proof size is O(kappa), independent of the witness — SNARK succinctness.

   What this deliberately does NOT model: zero-knowledge (not needed here)
   and prover running time of a real SNARK (covered by the timing
   microbenches only as the oracle's cost). *)

(* The key is prepared once at setup: every prove and verify tags with it.
   Nothing reads [crs_id], but setup draws it from the caller's RNG, and
   every later draw of that RNG (keys, digests) depends on the draw. *)
type crs = { mac_key : Repro_crypto.Hmac.prepared; crs_id : bytes }

type proof = bytes (* kappa-byte tag; adversaries see/forward it freely *)

type 'w relation = {
  rel_tag : string; (* domain separator naming the NP relation *)
  holds : statement:bytes -> witness:'w -> bool;
}

let setup rng =
  {
    mac_key = Repro_crypto.Hmac.prepare (Repro_util.Rng.bytes rng 32);
    crs_id = Repro_util.Rng.bytes rng Repro_crypto.Hashx.kappa_bytes;
  }

let proof_size = Repro_crypto.Hashx.kappa_bytes

let tag_of crs rel statement =
  let full =
    Repro_crypto.Hmac.mac_prepared crs.mac_key
      [ Bytes.of_string rel.rel_tag; statement ]
  in
  Bytes.sub full 0 proof_size

let c_prove = Repro_obs.Counters.make "snark.prove"
let c_verify = Repro_obs.Counters.make "snark.verify"

let prove crs rel ~statement ~witness =
  Repro_obs.Counters.bump c_prove;
  if rel.holds ~statement ~witness then Some (tag_of crs rel statement)
  else None

let verify crs rel ~statement proof =
  Repro_obs.Counters.bump c_verify;
  Bytes.length proof = proof_size && Bytes.equal proof (tag_of crs rel statement)

(* For experiments that need a "forged" proof attempt: a plausible-looking
   but unauthenticated tag. *)
let fake_proof rng = Repro_util.Rng.bytes rng proof_size
