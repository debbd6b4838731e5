(* Ablated variant of the SNARK-based SRDS with the CRH/disjoint-range
   duplicate defense DISABLED. Deliberately insecure: exists only so the
   forgery experiment (Fig. 2) can demonstrate the duplicate-signature
   replay attack the paper's Sec. 2.2 defends against ("an adversary that
   generates a valid-looking aggregate signature by using multiple copies
   of the same signature"). Never use outside the experiments. *)

include Srds_snark

let name = "srds-snark-ablated"

(* [pp] carries this variant's own srds-snark-ablated counters. *)
let setup rng ~n = Srds_snark.setup_with ~name ~strict_ranges:false rng ~n
