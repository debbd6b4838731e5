(* Secret sortition for the trusted-PKI SRDS (paper Sec. 2.2, "sortition
   approach" following Algorand [22]).

   The trusted setup holds a secret key; for each virtual party i it flips a
   biased PRF coin deciding whether i receives a real signing key or an
   obliviously generated verification key. Only the per-party outcome is
   revealed to that party; the adversary, seeing all verification keys,
   cannot tell signers from non-signers (oblivious keys are uniform). *)

(* The key is prepared once: a coin then costs the two compressions of its
   HMAC, not the pads' two more. *)
type t = { key : Hmac.prepared; n : int; expected : int }

let scale = 1 lsl 30

let create ~key ~n ~expected =
  if expected <= 0 || expected > n then invalid_arg "Sortition.create";
  { key = Hmac.prepare key; n; expected }

let label = Bytes.of_string "sortition"

(* PRF(key, i) interpreted as a fixed-point fraction, compared against
   expected/n. *)
let is_signer t i =
  if i < 0 || i >= t.n then invalid_arg "Sortition.is_signer";
  let d = Hmac.mac_prepared t.key [ label; Bytes.of_string (string_of_int i) ] in
  let frac = Hashx.to_int d mod scale in
  (* threshold = expected/n scaled; exact arithmetic since both fit an int *)
  frac * t.n < t.expected * scale

let signers t =
  List.filter (is_signer t) (List.init t.n (fun i -> i))

let count_signers t = List.length (signers t)
