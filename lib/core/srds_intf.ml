(* SRDS — succinctly reconstructed distributed signatures (paper Def. 2.1).

   A scheme for N (virtual) parties is a quintuple
   (Setup, KeyGen, Sign, Aggregate = Aggregate2 ∘ Aggregate1, Verify) such
   that a final aggregate certifies that a majority of parties signed the
   message, while every signature (base or aggregated) stays
   polylog(N)·poly(kappa) bits and aggregation proceeds in polylog-size
   batches (Def. 2.2 succinctness/decomposability).

   Per the paper's convention, every signature encodes the minimum and
   maximum virtual index it covers ([min_index]/[max_index]); the BA
   protocol's range checks (Fig. 3 step 5c) and the duplicate-aggregation
   defense rely on them.

   [setup] returns public parameters plus a [master] value: the trusted
   dealer's secret state for trusted-PKI schemes (the sortition key), unit
   for bare-PKI schemes where parties run [keygen] themselves. *)

module type SCHEME = sig
  val name : string

  val pki : [ `Trusted | `Bare ]
  (** Trusted PKI: keys honestly generated, corrupt parties cannot replace
      them. Bare PKI: corrupt parties may substitute their verification
      keys after seeing all public information (paper Sec. 1.2). *)

  type pp
  type master
  type sk
  type signature

  val setup : Repro_util.Rng.t -> n:int -> pp * master
  (** Public parameters for [n] virtual parties. *)

  val keygen : pp -> master -> Repro_util.Rng.t -> index:int -> bytes * sk
  (** Key pair for one virtual index; the verification key is public bytes. *)

  val sign : pp -> sk -> index:int -> msg:bytes -> signature option
  (** [None] when this party cannot sign (e.g. it holds an oblivious key in
      the sortition construction). *)

  val admit : pp -> vks:bytes array -> msg:bytes -> signature -> signature option
  (** The per-input half of [aggregate1]: [None] unless the input
      [verify_partial]s on [msg], else the form [select] works on (the
      SNARK scheme promotes a base signature to a count-1 aggregate with a
      PCD source step here). A pure function of its arguments, so a caller
      may compute it once per distinct (msg, input) and reuse it. *)

  val select : pp -> signature list -> signature list
  (** The keyless half of [aggregate1]: sort the admitted inputs
      deterministically (a stable sort, so ties keep input order), then
      drop duplicate signers (or keep a maximal range-disjoint prefix).
      Bumps the scheme's [aggregate] counter. *)

  val aggregate1 :
    pp -> vks:bytes array -> msg:bytes -> signature list -> signature list
  (** Deterministic filter: drop invalid/duplicate inputs using the
      verification keys (Def. 2.2 decomposability, first half). Always
      [select pp (List.filter_map (admit pp ~vks ~msg) sigs)]. *)

  val aggregate2 : pp -> msg:bytes -> signature list -> signature option
  (** Combine filtered signatures without touching the n verification keys
      (Def. 2.2, second half). [None] on structurally unaggregatable input. *)

  val verify : pp -> vks:bytes array -> msg:bytes -> signature -> bool
  (** Accept iff the signature attests a majority of base signers on [msg]. *)

  val verify_partial : pp -> vks:bytes array -> msg:bytes -> signature -> bool
  (** Validity of an intermediate (not necessarily majority) signature —
      what [admit] enforces on each input. *)

  val min_index : signature -> int
  val max_index : signature -> int

  val count : signature -> int
  (** Number of base signatures the signature attests. *)

  val threshold : pp -> int
  (** Base-signature count an accepting aggregate must reach. *)

  val encode_sig : Repro_util.Encode.sink -> signature -> unit
  val decode_sig : Repro_util.Encode.source -> signature
end

(* Convenience: wire helpers shared by all schemes. *)
module Wire (S : SCHEME) = struct
  let to_bytes sg = Repro_util.Encode.to_bytes (fun b -> S.encode_sig b sg)
  let of_bytes data = Repro_util.Encode.decode data S.decode_sig
  let size sg = Bytes.length (to_bytes sg)
end

(* One aggregation tree over [sigs], as the protocol's tree aggregates:
   each level splits the current signatures into consecutive batches of
   [batch] and [merge]s each batch (in order), until one signature is
   left. Returns that final aggregate (None if a level fails to shrink the
   list) and the tree depth. *)
let aggregate_tree ~merge ~batch sigs =
  let rec batches = function
    | [] -> []
    | l ->
      let rec take k acc = function
        | x :: rest when k > 0 -> take (k - 1) (x :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let head, rest = take batch [] l in
      head :: batches rest
  in
  let rec go depth = function
    | [] -> (None, depth)
    | [ sg ] -> (Some sg, depth)
    | sigs ->
      let next = List.filter_map merge (batches sigs) in
      if List.length next >= List.length sigs then (None, depth + 1)
      else go (depth + 1) next
  in
  go 0 sigs

(* Per-party fan-outs, run on the domain pool.

   Determinism: party [i]'s key is always derived from the child stream
   labelled "kg.<i>" of the caller's rng ([Rng.of_label] is a pure
   derivation that does not advance the parent), so outputs are a function
   of (rng, i) alone — bit-identical for any pool size and any scheduling
   order. [sign_all] is deterministic given the secret keys already. *)
module Batch (S : SCHEME) = struct
  let keygen_all pp master rng ~count =
    Repro_obs.Trace.span ~cat:"srds"
      ~args:[ ("scheme", S.name); ("count", string_of_int count) ]
      "srds.keygen_all"
    @@ fun () ->
    Repro_util.Parallel.init count (fun i ->
        S.keygen pp master
          (Repro_util.Rng.of_label rng ("kg." ^ string_of_int i))
          ~index:i)

  let sign_all pp sks ~msg =
    Repro_obs.Trace.span ~cat:"srds" ~args:[ ("scheme", S.name) ]
      "srds.sign_all"
    @@ fun () ->
    Repro_util.Parallel.init (Array.length sks) (fun i ->
        S.sign pp sks.(i) ~index:i ~msg)
end
