(* SRDS from one-way functions in the trusted-PKI model (paper Thm. 2.7).

   The "sortition approach": the trusted setup holds a secret PRF key and,
   for each virtual party, flips a biased coin. Selected parties (expected
   [expected_signers pp], a polylog quantity) receive a real WOTS key pair;
   everyone else receives an *obliviously generated* verification key — a
   uniform string indistinguishable from a real key with no corresponding
   signing key. Since the adversary corrupts parties after seeing only the
   verification keys, it cannot target the signer set, so the honest
   fraction is preserved inside it with high probability.

   Signatures:
   - base: a single (index, WOTS signature) pair;
   - aggregate: the sorted union of base pairs plus the [lo, hi] index
     range. Aggregation is concatenation with deduplication by signer index
     (Aggregate1 also drops invalid pairs using the verification keys);
     verification counts distinct valid signer signatures and accepts at
     [threshold] = half the expected signer count. Everything is
     polylog(n)*poly(kappa) bits because only ~polylog parties can sign. *)

module Rng = Repro_util.Rng
module Encode = Repro_util.Encode
module Wots = Repro_crypto.Wots
module Prf = Repro_crypto.Prf
module Sortition = Repro_crypto.Sortition
module Hashx = Repro_crypto.Hashx

let name = "srds-owf"
let pki = `Trusted

let c_keygen = Repro_obs.Counters.make (name ^ ".keygen")
let c_sign = Repro_obs.Counters.make (name ^ ".sign")
let c_verify = Repro_obs.Counters.make (name ^ ".verify")
let c_aggregate = Repro_obs.Counters.make (name ^ ".aggregate")

type pp = {
  n : int;
  expected : int; (* expected number of sortition-selected signers *)
  pp_id : bytes; (* domain separator for this instance *)
}

type master = { sortition : Sortition.t }

type sk = Signer of Wots.secret_key | Oblivious

type entry = { e_index : int; e_sig : Wots.signature }

type signature = {
  entries : entry list; (* sorted by index, distinct *)
  lo : int;
  hi : int;
}

(* Expected signers: Theta(log^2 n) scaled (paper: polylog). Large enough
   that a (1 - beta) honest fraction clears the N/2-of-expected threshold
   with high probability at the corruption rates the experiments use. *)
let expected_signers ~n =
  let lg = max 2 (Repro_util.Mathx.log2_ceil n) in
  min n (max 24 (4 * lg))

let setup rng ~n =
  let key = Prf.of_seed (Rng.bytes rng 32) in
  let expected = expected_signers ~n in
  let pp = { n; expected; pp_id = Rng.bytes rng Hashx.kappa_bytes } in
  (pp, { sortition = Sortition.create ~key ~n ~expected })

let keygen pp master rng ~index =
  Repro_obs.Counters.bump c_keygen;
  if Sortition.is_signer master.sortition index then begin
    let seed =
      Hashx.hash ~tag:"srds-owf-seed" [ pp.pp_id; Rng.bytes rng 32 ]
    in
    let vk, sk = Wots.keygen seed in
    (vk, Signer sk)
  end
  else (Wots.keygen_oblivious rng, Oblivious)

let msg_digest pp msg = Hashx.hash ~tag:"srds-owf-msg" [ pp.pp_id; msg ]

let sign pp sk ~index ~msg =
  Repro_obs.Counters.bump c_sign;
  match sk with
  | Oblivious -> None
  | Signer wsk ->
    let sg = Wots.sign wsk (msg_digest pp msg) in
    Some { entries = [ { e_index = index; e_sig = sg } ]; lo = index; hi = index }

let entry_valid pp ~vks ~digest e =
  e.e_index >= 0
  && e.e_index < pp.n
  && e.e_index < Array.length vks
  && Wots.verify vks.(e.e_index) digest e.e_sig

(* Structural sanity of a (partial) signature. *)
let well_formed pp sg =
  sg.lo >= 0 && sg.hi < pp.n && sg.lo <= sg.hi
  && sg.entries <> []
  && List.for_all (fun e -> e.e_index >= sg.lo && e.e_index <= sg.hi) sg.entries
  &&
  (* sorted strictly increasing: distinct signers *)
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.e_index < b.e_index && sorted rest
    | _ -> true
  in
  sorted sg.entries

let verify_partial pp ~vks ~msg sg =
  well_formed pp sg
  &&
  let digest = msg_digest pp msg in
  List.for_all (entry_valid pp ~vks ~digest) sg.entries

let admit pp ~vks ~msg sg = if verify_partial pp ~vks ~msg sg then Some sg else None

(* Deterministic filter over admitted signatures: drop entry duplicates
   across signatures (first occurrence wins after sorting inputs by their
   lo index, which is deterministic). *)
let select _pp sigs =
  Repro_obs.Counters.bump c_aggregate;
  let sorted = List.sort (fun a b -> compare (a.lo, a.hi) (b.lo, b.hi)) sigs in
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun sg ->
      let fresh = List.filter (fun e -> not (Hashtbl.mem seen e.e_index)) sg.entries in
      List.iter (fun e -> Hashtbl.add seen e.e_index ()) fresh;
      match fresh with
      | [] -> None
      | entries ->
        Some { entries; lo = (List.hd entries).e_index;
               hi = (List.nth entries (List.length entries - 1)).e_index })
    sorted

let aggregate1 pp ~vks ~msg sigs = select pp (List.filter_map (admit pp ~vks ~msg) sigs)

(* Merge by concatenation; keys are not consulted (Def. 2.2). *)
let aggregate2 _pp ~msg:_ sigs =
  match sigs with
  | [] -> None
  | _ ->
    let entries =
      List.concat_map (fun sg -> sg.entries) sigs
      |> List.sort_uniq (fun a b -> compare a.e_index b.e_index)
    in
    (match entries with
    | [] -> None
    | first :: _ ->
      let last = List.nth entries (List.length entries - 1) in
      Some { entries; lo = first.e_index; hi = last.e_index })

let threshold pp = (pp.expected / 2) + 1

let count sg = List.length sg.entries

let verify pp ~vks ~msg sg =
  Repro_obs.Counters.bump c_verify;
  verify_partial pp ~vks ~msg sg && count sg >= threshold pp

let min_index sg = sg.lo
let max_index sg = sg.hi

let encode_sig b sg =
  Encode.varint b sg.lo;
  Encode.varint b sg.hi;
  Encode.list b
    (fun b e ->
      Encode.varint b e.e_index;
      Wots.encode_signature b e.e_sig)
    sg.entries

let decode_sig src =
  let lo = Encode.r_varint src in
  let hi = Encode.r_varint src in
  let entries =
    Encode.r_list src (fun src ->
        let e_index = Encode.r_varint src in
        let e_sig = Wots.decode_signature src in
        { e_index; e_sig })
  in
  { entries; lo; hi }
