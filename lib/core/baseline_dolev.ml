(* Baseline: Dolev–Strong authenticated broadcast as a BA reference row.

   The designated sender (party 0) signs its input and every honest party
   relays accepted values with its own signature appended; after t + 1
   relay rounds the unique accepted value (or the default on a corrupt,
   equivocating sender) is the output. This is the classic authenticated
   baseline of the Table 1 landscape (cf. the Momose–Ren axis in
   PAPERS.md): tolerant of any message-content attack — forged or mangled
   chains simply fail signature validation — but Theta(n^2) messages each
   carrying an O(t)-deep signature chain, i.e. none of the balanced
   polylog structure of the pipeline protocols. Under network conditions
   its round-exact chain-depth discipline is brittle: a message deferred
   across its relay round arrives with the wrong depth and is discarded,
   which is why the matrix keeps its condition cells ungated reference
   points. *)

module Network = Repro_net.Network
module Engine = Repro_net.Engine
module Dolev = Repro_consensus.Dolev_strong
module Mss = Repro_crypto.Mss

type config = {
  value : bool;
  seed : int; (* the PKI's: a run refuses a PKI of another (n, seed) *)
}

let enc b = Bytes.make 1 (if b then '\001' else '\000')

(* PKI setup (uncharged, like the pipeline's phase A): one small Merkle
   key per party — a Dolev–Strong relayer signs each value once, so a
   handful of leaves suffices and keygen stays cheap at scale. Keys are a
   function of (n, seed) alone, so one PKI serves every run with that
   (n, seed); a run signs with unused copies, never with these keys. *)
type pki = {
  k_n : int;
  k_seed : int;
  keys : (Mss.verification_key * Mss.secret_key) array;
}

let pki ~n ~seed =
  {
    k_n = n;
    k_seed = seed;
    keys =
      Repro_util.Parallel.init n (fun p ->
          Mss.keygen ~height:3
            (Bytes.of_string (Printf.sprintf "ds-key-%d-%d" seed p)));
  }

let run ?adversary ~net ~pki (cfg : config) =
  let n = Network.n net in
  if pki.k_n <> n || pki.k_seed <> cfg.seed then
    invalid_arg
      (Printf.sprintf
         "Baseline_dolev.run: PKI for (n=%d, seed=%d) given a run with \
          (n=%d, seed=%d)"
         pki.k_n pki.k_seed n cfg.seed);
  let vks = Array.map fst pki.keys in
  let members = List.init n (fun i -> i) in
  let sender = 0 in
  let value_bytes = enc cfg.value in
  let sts =
    Array.init n (fun p ->
        if Network.is_honest net p then
          Some
            (Dolev.create ~members ~me:p ~sender
               ~pki:{ Dolev.vks; sk = Mss.unused_copy (snd pki.keys.(p)) }
               ~input:value_bytes)
        else None)
  in
  let rounds = Dolev.rounds ~members in
  Network.phase net "dolev-strong" (fun () ->
      Engine.run net ?adversary ~tag:"ds" ~rounds
        ~machines:(fun p ->
          match sts.(p) with
          | Some st -> [ ("bcast", Dolev.machine st) ]
          | None -> [])
        ());
  let round = Network.round net in
  Array.mapi
    (fun p st ->
      match st with
      | Some st when Network.is_honest net p ->
        (* corrupt-sender ambiguity resolves to the default: still
           agreement, validity is vacuous *)
        Option.map
          (fun v ->
            let b = Bytes.length v = 1 && Bytes.get v 0 = '\001' in
            Outcome.decide_bit net ~round p b;
            b)
          (Dolev.output ~default:(enc false) st)
      | _ -> None)
    sts
