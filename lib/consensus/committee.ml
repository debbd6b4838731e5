(* Committee agreement on a *payload*: broadcast candidates once, agree on a
   candidate digest with multivalued BA, then adopt the payload matching the
   agreed digest.

   Multi_ba guarantees the agreed digest is some honest member's input
   digest; that member broadcast the corresponding payload to the whole
   committee in round 0 over authenticated channels, so every honest member
   holds the winning payload — no fetch round is needed.

   Digests are computed lazily: a member hashes its own candidate once (its
   BA input) and keeps the round-0 payloads as received. Only on a decision
   for a digest other than its own does it hash received payloads, in
   arrival order, until one matches. Every payload with the agreed digest
   is the same bytes, so which match is adopted does not matter; the
   unanimous case hashes nothing beyond the BA input.

   This combinator realizes the agreement core of both f_ct (agree on the
   reconstructed coin) and f_aggr-sig (agree on the aggregated signature)
   within good tree nodes, at digest-size BA cost plus one payload
   broadcast. An optional [valid] predicate lets callers reject adopted
   payloads that fail protocol-specific checks (external validity).

   Simulation cost: the committee's sorted member array and the member's
   peers array (the members minus itself) are built once and shared with
   the inner Multi_ba and Phase_king instances. Each send round is one
   multicast of one payload to the peers array, and each tally is one
   {!Members} walk of the inbox view, so per-message work is a cursor step
   and a decode — no per-message tables and no per-round peer lists. *)

type t = {
  members : Members.t;
  peers : int array;
  me : int;
  candidate : bytes;
  own : bytes; (* digest of [candidate], the BA input *)
  valid : bytes -> bool;
  mutable received : bytes list; (* members' round-0 payloads, arrival order *)
  ba : Multi_ba.t;
  mutable output : bytes option option; (* None until decided *)
}

let digest payload = Repro_crypto.Hashx.hash ~tag:"committee-agree" [ payload ]

let pre_rounds = 1

let rounds ~members = pre_rounds + Multi_ba.rounds ~members

let of_members ~members ~me ~candidate ?(valid = fun _ -> true) () =
  let peers = Members.peers members ~me in
  let own = digest candidate in
  {
    members;
    peers;
    me;
    candidate;
    own;
    valid;
    received = [];
    ba = Multi_ba.of_members ~members ~me ~peers ~input:own;
    output = None;
  }

let create ~members ~me ~candidate ?valid () =
  of_members ~members:(Members.of_list members) ~me ~candidate ?valid ()

let m_send t ~round (out : Repro_net.Engine.out) =
  if round = 0 then out.send_many t.peers t.candidate
  else Multi_ba.m_send t.ba ~round:(round - pre_rounds) out

(* The payload whose digest is [d]: the own candidate when it won, else the
   first received payload that hashes to [d]. *)
let adopt t d =
  if Bytes.equal d t.own then Some t.candidate
  else List.find_opt (fun payload -> Bytes.equal (digest payload) d) t.received

let m_recv t ~round inbox =
  if round = 0 then begin
    t.received <- [];
    Members.iter t.members inbox t (fun t _ payload -> t.received <- payload :: t.received);
    t.received <- List.rev t.received
  end
  else if t.output = None then begin
    (* Rounds past the decision (a smaller committee sharing an engine run
       with a larger one) neither re-hash nor re-validate. *)
    Multi_ba.m_recv t.ba ~round:(round - pre_rounds) inbox;
    match Multi_ba.output t.ba with
    | None -> ()
    | Some None -> t.output <- Some None
    | Some (Some d) -> (
      match adopt t d with
      | Some payload when t.valid payload -> t.output <- Some (Some payload)
      | _ -> t.output <- Some None)
  end

let machine t =
  { Repro_net.Engine.m_send = (fun ~round out -> m_send t ~round out);
    m_recv = (fun ~round inbox -> m_recv t ~round inbox) }

let output t = t.output
