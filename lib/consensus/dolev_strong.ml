(* Dolev–Strong authenticated broadcast: t+1 rounds, tolerates any t < m
   corruptions given a signature PKI. Used by the broadcast corollary
   (paper Cor. 1.2 comparison) and as a baseline primitive.

   A value is *accepted* at round r if it carries valid signatures from r+1
   distinct parties, the first being the designated sender. On accepting a
   new value a party appends its own signature and relays to everyone.
   After t+1 rounds: output the unique accepted value, or the default if
   none or several were accepted.

   Signatures are Merkle (many-time) signatures — each relay consumes one
   WOTS leaf of the relayer's key. *)

module Mss = Repro_crypto.Mss
module Hashx = Repro_crypto.Hashx
module Inbox = Repro_net.Inbox

type pki = {
  vks : Mss.verification_key array; (* indexed by party id *)
  sk : Mss.secret_key; (* my key *)
}

type t = {
  members : int array;
  peers : int array; (* members minus [me] *)
  me : int;
  sender : int;
  t_corrupt : int;
  pki : pki;
  input : bytes option; (* Some v iff me = sender *)
  accepted : (string, unit) Hashtbl.t; (* accepted values *)
  mutable to_relay : (bytes * (int * Mss.signature) list) list;
  mutable done_ : bool;
}

let rounds ~members =
  (* t+1 relay rounds with t = m - 1 tolerated is overkill; we follow the
     committee convention t < m/3 used across this library. *)
  Phase_king.max_corrupt (List.length members) + 2

let create ~members ~me ~sender ~pki ~input =
  let members = Array.of_list (List.sort_uniq compare members) in
  {
    members;
    peers = Array.of_list (List.filter (fun p -> p <> me) (Array.to_list members));
    me;
    sender;
    t_corrupt = Phase_king.max_corrupt (Array.length members);
    pki;
    input = (if me = sender then Some input else None);
    accepted = Hashtbl.create 4;
    to_relay = [];
    done_ = false;
  }

let value_digest v = Hashx.hash ~tag:"dolev-strong" [ v ]

let enc_msg b (v, chain) =
  Repro_util.Encode.bytes b v;
  Repro_util.Encode.list b
    (fun b (signer, sg) ->
      Repro_util.Encode.varint b signer;
      Mss.encode_signature b sg)
    chain

let dec_msg src =
  let v = Repro_util.Encode.r_bytes src in
  let chain =
    Repro_util.Encode.r_list src (fun src ->
        let signer = Repro_util.Encode.r_varint src in
        let sg = Mss.decode_signature src in
        (signer, sg))
  in
  (v, chain)

(* A chain is valid at relay depth r if it has r+1 signatures on the value
   digest, all from distinct members, the first from the sender. *)
let chain_valid t ~depth (v, chain) =
  let d = value_digest v in
  List.length chain = depth + 1
  && (match chain with (s0, _) :: _ -> s0 = t.sender | [] -> false)
  && List.length (List.sort_uniq compare (List.map fst chain)) = List.length chain
  && List.for_all
       (fun (signer, sg) ->
         signer >= 0
         && signer < Array.length t.pki.vks
         && Array.exists (fun q -> q = signer) t.members
         && Mss.verify t.pki.vks.(signer) d sg)
       chain

let m_send t ~round (out : Repro_net.Engine.out) =
  if round = 0 then
    match t.input with
    | Some v ->
      Hashtbl.replace t.accepted (Bytes.to_string v) ();
      let sg = Mss.sign t.pki.sk (value_digest v) in
      out.send_many t.peers
        (Repro_util.Encode.to_bytes (fun b -> enc_msg b (v, [ (t.me, sg) ])))
    | None -> ()
  else begin
    List.iter
      (fun (v, chain) ->
        let sg = Mss.sign t.pki.sk (value_digest v) in
        out.send_many t.peers
          (Repro_util.Encode.to_bytes (fun b -> enc_msg b (v, chain @ [ (t.me, sg) ]))))
      t.to_relay;
    t.to_relay <- []
  end

let m_recv t ~round inbox =
  let depth = round in
  for k = 0 to Inbox.length inbox - 1 do
    match Repro_util.Encode.decode (Inbox.payload inbox k) dec_msg with
    | Some (v, chain) when chain_valid t ~depth (v, chain) ->
      let key = Bytes.to_string v in
      if not (Hashtbl.mem t.accepted key) then begin
        Hashtbl.replace t.accepted key ();
        (* Relay only while further rounds remain and I haven't signed. *)
        if
          depth + 1 < rounds ~members:(Array.to_list t.members)
          && not (List.exists (fun (s, _) -> s = t.me) chain)
          && Mss.signatures_remaining t.pki.sk > 0
        then t.to_relay <- (v, chain) :: t.to_relay
      end
    | _ -> ()
  done;
  if depth = rounds ~members:(Array.to_list t.members) - 1 then t.done_ <- true

let machine t =
  { Repro_net.Engine.m_send = (fun ~round out -> m_send t ~round out);
    m_recv = (fun ~round inbox -> m_recv t ~round inbox) }

let output ?(default = Bytes.empty) t =
  if not t.done_ then None
  else
    match Hashtbl.fold (fun k () acc -> k :: acc) t.accepted [] with
    | [ v ] -> Some (Bytes.of_string v)
    | _ -> Some default
