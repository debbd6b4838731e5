(* SRDS from VRF-based sortition in the *registered-PKI + CRS* model — the
   Algorand-style alternative the paper discusses (and delimits) in
   Sec. 2.2:

     "It would be desirable to reduce the trust assumption in establishing
      the PKI, e.g., by using verifiable pseudorandom functions (VRF) ...
      equivalently, that parties have access to a common random string
      (CRS) *independent* of corrupted parties' public keys. Without this
      extra model assumption, their VRF approach does not apply."

   Construction: every party registers (wots_vk, vrf_vk) itself (no trusted
   dealer); the CRS is sampled *after* registration. A party may sign iff
   its VRF output on the CRS falls below the sortition threshold; a base
   signature reveals the VRF proof so anyone can check eligibility. The
   rest (concatenation aggregation, counting verification) matches the OWF
   scheme.

   The model caveat is executable: this module exposes [grind_key], which
   searches for a key pair that wins the sortition for a *given* CRS. In
   the bare-PKI game — where the adversary replaces corrupted keys after
   seeing the CRS — grinding lets t corrupt parties all become signers and
   forge once t exceeds the signer threshold; the test suite and the bench
   run that attack (experiment E6-vrf). With registration before the CRS
   (this scheme's intended model, [pki = `Trusted] so the game fixes keys),
   the same adversary fails. *)

module Rng = Repro_util.Rng
module Encode = Repro_util.Encode
module Wots = Repro_crypto.Wots
module Vrf = Repro_crypto.Vrf
module Hashx = Repro_crypto.Hashx

let name = "srds-vrf"

(* Registered PKI: keys are chosen by the parties themselves but *fixed
   before the CRS exists*. In the game harness this is the `Trusted mode
   (no post-hoc key replacement); the bare-PKI grinding attack is exercised
   by the dedicated ablation below. *)
let pki = `Trusted

(* Scheme-operation counters, same shape as the other SRDS schemes': under
   REPRO_COUNTERS a run's <name>.{keygen,sign,aggregate,verify} values are
   a deterministic function of the protocol's logical work. *)
let c_keygen = Repro_obs.Counters.make (name ^ ".keygen")
let c_sign = Repro_obs.Counters.make (name ^ ".sign")
let c_verify = Repro_obs.Counters.make (name ^ ".verify")
let c_aggregate = Repro_obs.Counters.make (name ^ ".aggregate")

type pp = {
  n : int;
  expected : int;
  crs : bytes;
  pp_id : bytes;
}

type master = unit

type sk = { wots : Wots.secret_key; vrf : Vrf.sk }

type entry = {
  e_index : int;
  e_sig : Wots.signature;
  e_vrf_out : Vrf.output;
  e_vrf_proof : Vrf.proof;
}

type signature = { entries : entry list; lo : int; hi : int }

let expected_signers = Srds_owf.expected_signers

let setup rng ~n =
  ( {
      n;
      expected = expected_signers ~n;
      crs = Rng.bytes rng Hashx.kappa_bytes;
      pp_id = Rng.bytes rng Hashx.kappa_bytes;
    },
    () )

(* vk layout: wots_vk || vrf_vk, both kappa bytes. *)
let pack_vk wots_vk vrf_vk = Bytes.cat wots_vk vrf_vk

let split_vk vk =
  if Bytes.length vk <> 2 * Hashx.kappa_bytes then None
  else
    Some
      ( Bytes.sub vk 0 Hashx.kappa_bytes,
        Bytes.sub vk Hashx.kappa_bytes Hashx.kappa_bytes )

let keygen pp _master rng ~index:_ =
  Repro_obs.Counters.bump c_keygen;
  let seed = Hashx.hash ~tag:"srds-vrf-seed" [ pp.pp_id; Rng.bytes rng 32 ] in
  let wots_vk, wots_sk = Wots.keygen seed in
  let vrf_vk, vrf_sk = Vrf.keygen_from_seed (Hashx.hash ~tag:"srds-vrf-vrf" [ seed ]) in
  (pack_vk wots_vk vrf_vk, { wots = wots_sk; vrf = vrf_sk })

let win_fraction pp = float_of_int pp.expected /. float_of_int pp.n

let sortition_wins pp y = Vrf.to_fraction y < win_fraction pp

let msg_digest pp msg = Hashx.hash ~tag:"srds-vrf-msg" [ pp.pp_id; msg ]

let sign pp sk ~index ~msg =
  Repro_obs.Counters.bump c_sign;
  let y, proof = Vrf.eval sk.vrf pp.crs in
  if not (sortition_wins pp y) then None
  else
    Some
      {
        entries =
          [
            {
              e_index = index;
              e_sig = Wots.sign sk.wots (msg_digest pp msg);
              e_vrf_out = y;
              e_vrf_proof = proof;
            };
          ];
        lo = index;
        hi = index;
      }

let entry_valid pp ~vks ~digest e =
  e.e_index >= 0
  && e.e_index < pp.n
  && e.e_index < Array.length vks
  &&
  match split_vk vks.(e.e_index) with
  | None -> false
  | Some (wots_vk, vrf_vk) ->
    Vrf.verify vrf_vk pp.crs e.e_vrf_out e.e_vrf_proof
    && sortition_wins pp e.e_vrf_out
    && Wots.verify wots_vk (Lazy.force digest) e.e_sig

let well_formed pp sg =
  sg.lo >= 0 && sg.hi < pp.n && sg.lo <= sg.hi
  && sg.entries <> []
  && List.for_all (fun e -> e.e_index >= sg.lo && e.e_index <= sg.hi) sg.entries
  &&
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.e_index < b.e_index && sorted rest
    | _ -> true
  in
  sorted sg.entries

(* At most one message digest per call, computed when the first entry
   passes its VRF checks and shared by the rest. *)
let verify_partial pp ~vks ~msg sg =
  well_formed pp sg
  &&
  let digest = lazy (msg_digest pp msg) in
  List.for_all (entry_valid pp ~vks ~digest) sg.entries

let admit pp ~vks ~msg sg = if verify_partial pp ~vks ~msg sg then Some sg else None

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
        Some
          { entries; lo = (List.hd entries).e_index;
            hi = (List.nth entries (List.length entries - 1)).e_index })
    sorted

let aggregate1 pp ~vks ~msg sigs = select pp (List.filter_map (admit pp ~vks ~msg) sigs)

let aggregate2 _pp ~msg:_ sigs =
  match sigs with
  | [] -> None
  | _ -> (
    let entries =
      List.concat_map (fun sg -> sg.entries) sigs
      |> List.sort_uniq (fun a b -> compare a.e_index b.e_index)
    in
    match entries with
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
      Wots.encode_signature b e.e_sig;
      Encode.bytes b e.e_vrf_out;
      Encode.bytes b e.e_vrf_proof)
    sg.entries

let decode_sig src =
  let lo = Encode.r_varint src in
  let hi = Encode.r_varint src in
  let entries =
    Encode.r_list src (fun src ->
        let e_index = Encode.r_varint src in
        let e_sig = Wots.decode_signature src in
        let e_vrf_out = Encode.r_bytes src in
        let e_vrf_proof = Encode.r_bytes src in
        { e_index; e_sig; e_vrf_out; e_vrf_proof })
  in
  { entries; lo; hi }

(* --- the grinding attack (why bare PKI + key-after-CRS breaks this) --- *)

(* Search for a key pair whose VRF output on the *known* CRS wins the
   sortition. Expected pp.n / pp.expected attempts — trivial work. This is
   exactly what a bare-PKI adversary that replaces its keys after seeing
   the CRS would run; see Srds_experiments and test_vrf. *)
let grind_key pp rng =
  let rec go attempts =
    if attempts > 100 * (pp.n / max 1 pp.expected) + 1000 then None
    else begin
      let seed = Rng.bytes rng 32 in
      let wots_vk, wots_sk = Wots.keygen seed in
      let vrf_vk, vrf_sk = Vrf.keygen_from_seed (Hashx.hash ~tag:"grind" [ seed ]) in
      let y, _ = Vrf.eval vrf_sk pp.crs in
      if sortition_wins pp y then
        Some (pack_vk wots_vk vrf_vk, { wots = wots_sk; vrf = vrf_sk })
      else go (attempts + 1)
    end
  in
  go 0
