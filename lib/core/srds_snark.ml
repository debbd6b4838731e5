(* SRDS from CRH + SNARKs (with linear extraction) in the bare-PKI + CRS
   model (paper Thm. 2.8).

   Every party locally generates a WOTS key pair and publishes the
   verification key (bare PKI: corrupt parties may replace theirs after
   seeing everything public). Aggregation climbs the communication tree as
   proof-carrying data [23]: a node's partially aggregated signature is a
   *statement* — "c distinct valid base signatures on m from virtual IDs in
   [lo, hi], with CRH digest d" — plus a succinct PCD proof of a fully
   compliant aggregation history. The compliance predicate enforces:

   - at sources (leaf aggregation): the witness lists c distinct valid base
     signatures with strictly increasing indices inside [lo, hi];
   - at internal steps: child ranges are pairwise disjoint and tile
     [lo, hi], counts add up, and the digest chains the children's digests
     (the CRH chaining of Sec. 2.2 that blocks duplicate-signature replay).

   Every statement also binds the digest of the full verification-key
   vector and the CRS instance, so proofs cannot be replayed across PKIs
   or setups. Proof size is O(kappa) at any depth (SNARK succinctness);
   see lib/snark/snark.ml and DESIGN.md for what the simulated oracle does
   and does not model. *)

module Rng = Repro_util.Rng
module Encode = Repro_util.Encode
module Wots = Repro_crypto.Wots
module Hashx = Repro_crypto.Hashx
module Snark = Repro_snark.Snark
module Pcd = Repro_snark.Pcd

let name = "srds-snark"
let pki = `Bare

(* The <name>.{keygen,sign,aggregate,verify} counters of one
   instantiation, looked up by name: this scheme's exist from load time, and
   a variant's (the ablation) from its first setup. *)
type ops = {
  c_keygen : Repro_obs.Counters.t;
  c_sign : Repro_obs.Counters.t;
  c_verify : Repro_obs.Counters.t;
  c_aggregate : Repro_obs.Counters.t;
}

let ops_named name =
  let c op = Repro_obs.Counters.make (name ^ "." ^ op) in
  {
    c_keygen = c "keygen";
    c_sign = c "sign";
    c_verify = c "verify";
    c_aggregate = c "aggregate";
  }

let () = ignore (ops_named name)

type pp = {
  n : int;
  crs : Snark.crs;
  pp_id : bytes;
  strict_ranges : bool;
      (* the CRH/disjoint-range duplicate defense; disabled only by the
         ablated variant used to demonstrate the duplicate-replay attack *)
  ops : ops; (* the counters of the instantiation that set this up *)
  mutable vks_digest_cache : (bytes array * bytes) option;
  mutable pcd_cache : (bytes array * Pcd.t) option;
}

type master = unit
type sk = Wots.secret_key

type agg = {
  a_count : int;
  a_lo : int;
  a_hi : int;
  a_digest : bytes;
  a_vkd : bytes; (* digest of the verification-key vector the proof binds *)
  a_proof : Snark.proof;
}

type signature =
  | Base of { b_index : int; b_sig : Wots.signature }
  | Agg of agg

let setup_with ~name ~strict_ranges rng ~n =
  ( {
      n;
      crs = Snark.setup rng;
      pp_id = Rng.bytes rng Hashx.kappa_bytes;
      strict_ranges;
      ops = ops_named name;
      vks_digest_cache = None;
      pcd_cache = None;
    },
    () )

let setup rng ~n = setup_with ~name ~strict_ranges:true rng ~n

let keygen pp _master rng ~index:_ =
  Repro_obs.Counters.bump pp.ops.c_keygen;
  let seed = Hashx.hash ~tag:"srds-snark-seed" [ pp.pp_id; Rng.bytes rng 32 ] in
  Wots.keygen seed

let msg_digest pp msg = Hashx.hash ~tag:"srds-snark-msg" [ pp.pp_id; msg ]

let vks_digest pp vks =
  match pp.vks_digest_cache with
  | Some (cached, d) when cached == vks -> d
  | _ ->
    let d = Hashx.hash ~tag:"srds-snark-vks" (Array.to_list vks) in
    pp.vks_digest_cache <- Some (vks, d);
    d

(* --- statements --- *)

type stmt = { s_vkd : bytes; s_msg : bytes; s_count : int; s_lo : int; s_hi : int; s_digest : bytes }

let enc_stmt st =
  Encode.to_bytes (fun b ->
      Encode.bytes b st.s_vkd;
      Encode.bytes b st.s_msg;
      Encode.varint b st.s_count;
      Encode.varint b st.s_lo;
      Encode.varint b st.s_hi;
      Encode.bytes b st.s_digest)

let dec_stmt data =
  Encode.decode data (fun src ->
      let s_vkd = Encode.r_bytes src in
      let s_msg = Encode.r_bytes src in
      let s_count = Encode.r_varint src in
      let s_lo = Encode.r_varint src in
      let s_hi = Encode.r_varint src in
      let s_digest = Encode.r_bytes src in
      { s_vkd; s_msg; s_count; s_lo; s_hi; s_digest })

(* --- base-signature witness encoding (the leaf-level local data) --- *)

let enc_bases entries =
  Encode.to_bytes (fun b ->
      Encode.list b
        (fun b (i, sg) ->
          Encode.varint b i;
          Wots.encode_signature b sg)
        entries)

let dec_bases data =
  Encode.decode data (fun src ->
      Encode.r_list src (fun src ->
          let i = Encode.r_varint src in
          let sg = Wots.decode_signature src in
          (i, sg)))

let leaf_digest entries =
  Hashx.hash ~tag:"srds-snark-leaf"
    (List.concat_map
       (fun (i, sg) ->
         [ Bytes.of_string (string_of_int i);
           Hashx.hash ~tag:"srds-snark-wsig" (Array.to_list sg) ])
       entries)

let chain_digest child_digests = Hashx.hash ~tag:"srds-snark-chain" child_digests

(* --- the compliance predicate --- *)

(* [lookup i] returns the verification key of virtual party i, or [None]
   when the caller has no access to keys (internal aggregation steps never
   need them — only the vks digest [vkd] that every statement binds). *)
let make_pcd pp ~vkd ~lookup =
  let predicate ~msg ~local ~inputs =
      match dec_stmt msg with
      | None -> false
      | Some st -> (
        Bytes.equal st.s_vkd vkd
        && st.s_lo >= 0 && st.s_hi < pp.n && st.s_lo <= st.s_hi
        && st.s_count >= 1
        &&
        match inputs with
        | [] -> (
          (* source step: local data lists the base signatures *)
          match dec_bases local with
          | None -> false
          | Some entries ->
            List.length entries = st.s_count
            && entries <> []
            && fst (List.hd entries) = st.s_lo
            && fst (List.nth entries (List.length entries - 1)) = st.s_hi
            && (let rec increasing = function
                  | (a, _) :: ((b, _) :: _ as rest) -> a < b && increasing rest
                  | _ -> true
                in
                increasing entries)
            && List.for_all
                 (fun (i, sg) ->
                   i >= st.s_lo && i <= st.s_hi
                   &&
                   match lookup i with
                   | Some vk -> Wots.verify vk st.s_msg sg
                   | None -> false)
                 entries
            && Bytes.equal st.s_digest (leaf_digest entries))
        | _ -> (
          (* internal step: children tile [lo, hi] disjointly *)
          let children = List.map dec_stmt inputs in
          if List.exists (fun c -> c = None) children then false
          else
            let children = List.map Option.get children in
            List.for_all
              (fun c -> Bytes.equal c.s_vkd vkd && Bytes.equal c.s_msg st.s_msg)
              children
            &&
            let sorted = List.sort (fun a b -> compare a.s_lo b.s_lo) children in
            let rec disjoint = function
              | a :: (b :: _ as rest) -> a.s_hi < b.s_lo && disjoint rest
              | _ -> true
            in
            ((not pp.strict_ranges) || disjoint sorted)
            && (List.hd sorted).s_lo = st.s_lo
            && List.fold_left (fun acc c -> max acc c.s_hi) 0 sorted = st.s_hi
            && List.fold_left (fun acc c -> acc + c.s_count) 0 sorted = st.s_count
            && Bytes.equal st.s_digest
                 (chain_digest (List.map (fun c -> c.s_digest) sorted))))
  in
  Pcd.create pp.crs ~tag:"srds" ~predicate

(* PCD handle with full key access, memoized on the vks array. *)
let pcd pp ~vks =
  match pp.pcd_cache with
  | Some (cached, p) when cached == vks -> p
  | _ ->
    let p =
      make_pcd pp ~vkd:(vks_digest pp vks)
        ~lookup:(fun i -> if i >= 0 && i < Array.length vks then Some vks.(i) else None)
    in
    pp.pcd_cache <- Some (vks, p);
    p

(* --- scheme operations --- *)

let sign pp sk ~index ~msg =
  Repro_obs.Counters.bump pp.ops.c_sign;
  ignore index;
  Some (Base { b_index = index; b_sig = Wots.sign sk (msg_digest pp msg) })

let stmt_of_agg pp ~vks ~msg a =
  {
    s_vkd = vks_digest pp vks;
    s_msg = msg_digest pp msg;
    s_count = a.a_count;
    s_lo = a.a_lo;
    s_hi = a.a_hi;
    s_digest = a.a_digest;
  }

let verify_partial pp ~vks ~msg = function
  | Base b ->
    b.b_index >= 0 && b.b_index < pp.n
    && b.b_index < Array.length vks
    && Wots.verify vks.(b.b_index) (msg_digest pp msg) b.b_sig
  | Agg a ->
    a.a_lo >= 0 && a.a_hi < pp.n && a.a_lo <= a.a_hi && a.a_count >= 1
    && Bytes.equal a.a_vkd (vks_digest pp vks)
    && Pcd.verify (pcd pp ~vks) ~msg:(enc_stmt (stmt_of_agg pp ~vks ~msg a)) a.a_proof

let range = function
  | Base b -> (b.b_index, b.b_index)
  | Agg a -> (a.a_lo, a.a_hi)

let min_index sg = fst (range sg)
let max_index sg = snd (range sg)

let count = function Base _ -> 1 | Agg a -> a.a_count

(* Promote a base signature to a count-1 aggregate (a PCD source step).
   Runs inside Aggregate1 ([admit]) because it needs the verification keys;
   the promotion is deterministic, so decomposability is preserved (see
   DESIGN.md deviations). *)
let promote pp ~vks ~msg (b_index, b_sig) =
  let entries = [ (b_index, b_sig) ] in
  let st =
    {
      s_vkd = vks_digest pp vks;
      s_msg = msg_digest pp msg;
      s_count = 1;
      s_lo = b_index;
      s_hi = b_index;
      s_digest = leaf_digest entries;
    }
  in
  match Pcd.prove (pcd pp ~vks) ~msg:(enc_stmt st) ~local:(enc_bases entries) ~inputs:[] with
  | Some proof ->
    Some
      (Agg
         {
           a_count = 1;
           a_lo = b_index;
           a_hi = b_index;
           a_digest = st.s_digest;
           a_vkd = st.s_vkd;
           a_proof = proof;
         })
  | None -> None

(* Drop an invalid signature, promote a valid base. *)
let admit pp ~vks ~msg sg =
  if not (verify_partial pp ~vks ~msg sg) then None
  else
    match sg with
    | Base b -> promote pp ~vks ~msg (b.b_index, b.b_sig)
    | Agg _ -> Some sg

(* Keep a maximal prefix of range-disjoint admitted aggregates (sorted by
   lo; overlapping ranges would make the PCD step non-compliant, and
   overlap is exactly the duplicate-replay attack being filtered out). *)
let select pp sigs =
  Repro_obs.Counters.bump pp.ops.c_aggregate;
  let sorted =
    List.sort (fun a b -> compare (min_index a, max_index a) (min_index b, max_index b)) sigs
  in
  if not pp.strict_ranges then sorted
  else begin
    let rec keep last = function
      | [] -> []
      | sg :: rest ->
        if min_index sg > last then sg :: keep (max_index sg) rest
        else keep last rest
    in
    keep (-1) sorted
  end

let aggregate1 pp ~vks ~msg sigs = select pp (List.filter_map (admit pp ~vks ~msg) sigs)

(* Combine disjoint aggregates into one. No verification keys are consulted
   (Def. 2.2): the vks digest each aggregate binds is carried in the
   signature itself, and the internal PCD step only needs that digest. *)
let aggregate2 pp ~msg sigs =
  let aggs =
    List.filter_map (function Agg a -> Some a | Base _ -> None) sigs
    |> List.sort (fun a b -> compare a.a_lo b.a_lo)
  in
  match aggs with
  | [] -> None
  | [ a ] -> Some (Agg a) (* singleton: already a valid aggregate *)
  | first :: rest ->
    if not (List.for_all (fun a -> Bytes.equal a.a_vkd first.a_vkd) rest) then None
    else begin
      let vkd = first.a_vkd in
      let p = make_pcd pp ~vkd ~lookup:(fun _ -> None) in
      let last = List.nth aggs (List.length aggs - 1) in
      let md = msg_digest pp msg in
      let stmt_of a =
        {
          s_vkd = vkd;
          s_msg = md;
          s_count = a.a_count;
          s_lo = a.a_lo;
          s_hi = a.a_hi;
          s_digest = a.a_digest;
        }
      in
      let st =
        {
          s_vkd = vkd;
          s_msg = md;
          s_count = List.fold_left (fun acc a -> acc + a.a_count) 0 aggs;
          s_lo = first.a_lo;
          s_hi = List.fold_left (fun acc a -> max acc a.a_hi) last.a_hi aggs;
          s_digest = chain_digest (List.map (fun a -> a.a_digest) aggs);
        }
      in
      let inputs = List.map (fun a -> (enc_stmt (stmt_of a), a.a_proof)) aggs in
      match Pcd.prove p ~msg:(enc_stmt st) ~local:Bytes.empty ~inputs with
      | Some proof ->
        Some
          (Agg
             {
               a_count = st.s_count;
               a_lo = st.s_lo;
               a_hi = st.s_hi;
               a_digest = st.s_digest;
               a_vkd = vkd;
               a_proof = proof;
             })
      | None -> None
    end

let threshold pp = (pp.n / 2) + 1

let verify pp ~vks ~msg sg =
  Repro_obs.Counters.bump pp.ops.c_verify;
  verify_partial pp ~vks ~msg sg && count sg >= threshold pp

let encode_sig b = function
  | Base base ->
    Encode.u8 b 0;
    Encode.varint b base.b_index;
    Wots.encode_signature b base.b_sig
  | Agg a ->
    Encode.u8 b 1;
    Encode.varint b a.a_count;
    Encode.varint b a.a_lo;
    Encode.varint b a.a_hi;
    Encode.bytes b a.a_digest;
    Encode.bytes b a.a_vkd;
    Encode.bytes b a.a_proof

let decode_sig src =
  match Encode.r_u8 src with
  | 0 ->
    let b_index = Encode.r_varint src in
    let b_sig = Wots.decode_signature src in
    Base { b_index; b_sig }
  | 1 ->
    let a_count = Encode.r_varint src in
    let a_lo = Encode.r_varint src in
    let a_hi = Encode.r_varint src in
    let a_digest = Encode.r_bytes src in
    let a_vkd = Encode.r_bytes src in
    let a_proof = Encode.r_bytes src in
    Agg { a_count; a_lo; a_hi; a_digest; a_vkd; a_proof }
  | _ -> raise (Encode.Malformed "srds-snark signature tag")
