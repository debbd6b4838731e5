(* Baseline: multisignature-based certificates, the approach of Boyle et
   al. [13] that the paper's Sec. 1.2 identifies as the Theta(n)
   bottleneck. Implemented as an instance of the SRDS interface whose
   aggregate signature is

       { signer bitmask (n bits!) ; kappa-byte aggregate tag }

   so that running the *identical* Fig. 3 pipeline over it measures exactly
   what the paper claims: the certificate's Theta(n) identity vector
   dominates per-party communication, because multisignature verification
   "must receive the set of parties who signed the message" (footnote 8).

   The multisignature itself is simulated by an ideal aggregation oracle
   (XOR-combinable HMAC tags under a setup key) — size and interface
   faithful, unforgeability by oracle assumption; this baseline exists for
   communication measurement, and its security games are not part of the
   claims (see DESIGN.md). *)

module Rng = Repro_util.Rng
module Encode = Repro_util.Encode
module Bitset = Repro_util.Bitset
module Hashx = Repro_crypto.Hashx
module Hmac = Repro_crypto.Hmac

let name = "baseline-multisig"
let pki = `Trusted

(* Scheme-operation counters, same shape as the SRDS schemes': under
   REPRO_COUNTERS a run's <name>.{keygen,sign,aggregate,verify} values are
   a deterministic function of the protocol's logical work. *)
let c_keygen = Repro_obs.Counters.make (name ^ ".keygen")
let c_sign = Repro_obs.Counters.make (name ^ ".sign")
let c_verify = Repro_obs.Counters.make (name ^ ".verify")
let c_aggregate = Repro_obs.Counters.make (name ^ ".aggregate")

type pp = {
  n : int;
  mac_key : bytes; (* the ideal multisig oracle's key *)
  pp_id : bytes;
  verify_cache : (string, bool) Hashtbl.t;
}

type master = unit
type sk = int (* party index; the oracle signs for it *)

type signature = { who : Bitset.t; tag : bytes }

let setup rng ~n =
  ( { n; mac_key = Rng.bytes rng 32; pp_id = Rng.bytes rng Hashx.kappa_bytes;
      verify_cache = Hashtbl.create 256 },
    () )

let keygen pp _master _rng ~index =
  Repro_obs.Counters.bump c_keygen;
  (* verification keys are irrelevant to the cost model; a small public
     token keeps the interface uniform *)
  (Hashx.hash ~tag:"ms-vk" [ pp.pp_id; Bytes.of_string (string_of_int index) ], index)

let base_tag pp ~index ~msg =
  Bytes.sub
    (Hmac.mac_parts ~key:pp.mac_key
       [ pp.pp_id; Bytes.of_string (string_of_int index); msg ])
    0 Hashx.kappa_bytes

let xor_tags a b =
  Bytes.init Hashx.kappa_bytes (fun i ->
      Char.chr (Char.code (Bytes.get a i) lxor Char.code (Bytes.get b i)))

let sign pp sk ~index ~msg =
  Repro_obs.Counters.bump c_sign;
  if index <> sk then None
  else begin
    let who = Bitset.create pp.n in
    Bitset.set who index;
    Some { who; tag = base_tag pp ~index ~msg }
  end

(* Recompute the expected aggregate tag for a signer set: the oracle's view
   of a valid multisignature. O(|set|) MACs — memoized per (set, msg). *)
let expected_tag pp ~msg who =
  let zero = Bytes.make Hashx.kappa_bytes '\000' in
  Bitset.to_list who
  |> List.fold_left (fun acc i -> xor_tags acc (base_tag pp ~index:i ~msg)) zero

let verify_partial pp ~vks:_ ~msg sg =
  Bitset.length sg.who = pp.n
  && Bitset.cardinal sg.who > 0
  &&
  let key =
    Bytes.to_string
      (Hashx.hash ~tag:"ms-vcache"
         [ Encode.to_bytes (fun b -> Bitset.encode b sg.who); msg; sg.tag ])
  in
  match Hashtbl.find_opt pp.verify_cache key with
  | Some r -> r
  | None ->
    let r = Bytes.equal sg.tag (expected_tag pp ~msg sg.who) in
    Hashtbl.replace pp.verify_cache key r;
    r

let min_index sg = match Bitset.to_list sg.who with [] -> 0 | i :: _ -> i

let max_index sg =
  match List.rev (Bitset.to_list sg.who) with [] -> 0 | i :: _ -> i

let admit pp ~vks ~msg sg = if verify_partial pp ~vks ~msg sg then Some sg else None

(* Keep a maximal prefix of signer-disjoint admitted signatures (the
   committee receives many copies of each child aggregate; XOR-combination
   needs disjoint signer sets). *)
let select _pp sigs =
  Repro_obs.Counters.bump c_aggregate;
  let sorted =
    List.sort (fun a b -> compare (min_index a, max_index a) (min_index b, max_index b)) sigs
  in
  let rec keep last = function
    | [] -> []
    | sg :: rest ->
      if min_index sg > last then sg :: keep (max_index sg) rest else keep last rest
  in
  keep (-1) sorted

let aggregate1 pp ~vks ~msg sigs = select pp (List.filter_map (admit pp ~vks ~msg) sigs)

let aggregate2 _pp ~msg:_ sigs =
  match sigs with
  | [] -> None
  | first :: rest ->
    let who = Bitset.copy first.who in
    let tag = ref first.tag in
    let ok = ref true in
    List.iter
      (fun sg ->
        (* overlapping signer sets cannot be XOR-combined soundly; the
           honest pipeline never feeds overlaps (it unions disjoint
           subtrees), so reject them *)
        if Bitset.cardinal (Bitset.inter who sg.who) > 0 then ok := false
        else begin
          Bitset.iter (fun i -> Bitset.set who i) sg.who;
          tag := xor_tags !tag sg.tag
        end)
      rest;
    if !ok then Some { who; tag = !tag } else None

let threshold pp = (pp.n / 2) + 1

let count sg = Bitset.cardinal sg.who

let verify pp ~vks ~msg sg =
  Repro_obs.Counters.bump c_verify;
  verify_partial pp ~vks ~msg sg && count sg >= threshold pp

(* The honest Theta(n) cost: the bitmask is part of every signature. *)
let encode_sig b sg =
  Bitset.encode b sg.who;
  Encode.bytes b sg.tag

let decode_sig src =
  let who = Bitset.decode src in
  let tag = Encode.r_bytes src in
  { who; tag }
