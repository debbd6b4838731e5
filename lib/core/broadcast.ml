(* Broadcast with polylog amortized per-party communication — Corollary 1.2.

   The expensive part of the pipeline, establishing the almost-everywhere
   communication tree and the SRDS PKI, happens once; each of the l
   broadcast executions then costs every party polylog(n)*poly(kappa) bits:

     1. the sender hands its value to the committees of the leaves it is
        assigned to;
     2. node committees relay the (plurality) value up the tree to the
        supreme committee — polylog messages per party per level;
     3. the supreme committee agrees on the received value (an equivocating
        sender yields *some* agreed value — standard broadcast semantics
        for a corrupt sender);
     4. the certification pipeline of the BA protocol (coin, SRDS
        aggregation, one-round boost) delivers the agreed value to every
        party with a certificate.

   Consistency therefore holds for every sender; validity (output = the
   sender's value) holds for honest senders. *)

module Rng = Repro_util.Rng
module Encode = Repro_util.Encode
module Network = Repro_net.Network
module Engine = Repro_net.Engine
module Inbox = Repro_net.Inbox
module Params = Repro_aetree.Params
module Tree = Repro_aetree.Tree
module Ae_comm = Repro_aetree.Ae_comm
module Committee = Repro_consensus.Committee

type exec = {
  sender : int;
  value : bytes;
  outputs : bytes option array; (* per party: the value it delivered *)
}

(* Judged with [Outcome.of_outputs ~expected:(Some value)], an execution
   is consistent when its outcome is [agreed] (for every sender), and it
   delivered when, in addition, its sender is honest and the outcome is
   [valid]: every honest decider output the sender's value. *)
let delivered net e (o : Outcome.t) = Network.is_honest net e.sender && o.Outcome.valid

module Make (S : Srds_intf.SCHEME) = struct
  module BA = Balanced_ba.Make (S)

  (* Relay one sender's value up the tree; returns each supreme member's
     candidate value. Takes (height + 1) network rounds. *)
  let relay_up ctx ~label ~sender ~value =
    let net = ctx.BA.net in
    let n = Network.n net in
    let tree = ctx.BA.tree in
    let params = ctx.BA.params in
    let height = params.Params.height in
    let tag = "bcast-" ^ label in
    let received : (int * int, bytes list) Hashtbl.t array =
      Array.init n (fun _ -> Hashtbl.create 4)
    in
    let enc ~level ~idx v =
      Encode.to_bytes (fun b ->
          Encode.varint b level;
          Encode.varint b idx;
          Encode.bytes b v)
    in
    let start = Network.round net in
    let handler p ~round inbox =
      let round = round - start in
      for i = 0 to Inbox.length inbox - 1 do
        if Inbox.tag inbox i = tag then
          match
            Encode.decode (Inbox.payload inbox i) (fun src ->
                let level = Encode.r_varint src in
                let idx = Encode.r_varint src in
                let v = Encode.r_bytes src in
                (level, idx, v))
          with
          | Some (level, idx, v) ->
            Hashtbl.replace received.(p) (level, idx)
              (v :: (try Hashtbl.find received.(p) (level, idx) with Not_found -> []))
          | None -> ()
      done;
      if round = 0 then begin
        if p = sender then begin
          (* step 1: to the committees of the sender's leaves *)
          let leaves =
            List.sort_uniq compare
              (List.map (Params.leaf_of_slot params) (Tree.party_slots tree p))
          in
          List.iter
            (fun leaf ->
              Network.send_many net ~src:p
                ~dsts:(Tree.assigned tree ~level:1 ~idx:leaf)
                ~tag
                (enc ~level:1 ~idx:leaf value))
            leaves
        end
      end
      else if round <= height - 1 then begin
        (* members of level-[round] nodes forward the plurality value up *)
        let level = round in
        let my_nodes =
          if level = 1 then
            List.sort_uniq compare
              (List.map (fun s -> Params.leaf_of_slot params s) (Tree.party_slots tree p))
          else
            List.filter_map
              (fun (l, idx) -> if l = level then Some idx else None)
              (Ae_comm.memberships ctx.BA.ae p)
        in
        List.iter
          (fun idx ->
            match Ae_comm.plurality (try Hashtbl.find received.(p) (level, idx) with Not_found -> []) with
            | Some v when level < height ->
              let parent = idx / params.Params.branching in
              Network.send_many net ~src:p
                ~dsts:(Tree.assigned tree ~level:(level + 1) ~idx:parent)
                ~tag
                (enc ~level:(level + 1) ~idx:parent v)
            | _ -> ())
          my_nodes
      end
    in
    let handlers =
      Array.init n (fun p -> if Network.is_honest net p then Some (handler p) else None)
    in
    (* height relay hops plus one final ingestion round *)
    let everyone = Network.everyone net in
    Network.run_slices net ~rounds:(height + 1)
      ~extra:(fun ~round:_ -> everyone)
      (Array.get handlers);
    (* supreme members' candidates *)
    let root_key = (height, 0) in
    List.filter_map
      (fun p ->
        if Network.is_honest net p then
          match Ae_comm.plurality (try Hashtbl.find received.(p) root_key with Not_found -> []) with
          | Some v -> Some (p, v)
          | None -> if height = 1 && p = sender then Some (p, value) else None
        else None)
      ctx.BA.supreme

  (* One broadcast execution over an established context. *)
  let execute ctx ~label ~sender ~value : bytes option array =
    let net = ctx.BA.net in
    let candidates = relay_up ctx ~label ~sender ~value in
    Network.flush net;
    (* supreme committee agrees on the value *)
    let agree_states = Hashtbl.create 16 in
    List.iter
      (fun p ->
        if Network.is_honest net p then begin
          let candidate =
            match List.assoc_opt p candidates with Some v -> v | None -> Bytes.empty
          in
          Hashtbl.replace agree_states p
            (Committee.create ~members:ctx.BA.supreme ~me:p ~candidate ())
        end)
      ctx.BA.supreme;
    Engine.run net
      ~tag:("bagree-" ^ label)
      ~rounds:(Committee.rounds ~members:ctx.BA.supreme)
      ~machines:(fun p ->
        match Hashtbl.find_opt agree_states p with
        | Some st -> [ ("a", Committee.machine st) ]
        | None -> [])
      ();
    Network.flush net;
    let agreed p =
      match Hashtbl.find_opt agree_states p with
      | Some st -> (
        match Committee.output st with Some (Some v) -> Some v | _ -> None)
      | None -> None
    in
    (* certify + boost the agreed value *)
    BA.certify ctx ~label ~values:agreed

  (* One context (tree and keys) on [net], then one execution per
     (sender, value) of [messages], in order: the setup amortizes. *)
  let run ~net (cfg : Balanced_ba.config) ~(messages : (int * bytes) list) =
    let setup = BA.setup ~n:(Network.n net) ~seed:cfg.seed in
    let ctx = BA.make_ctx ~net ~setup cfg in
    List.mapi
      (fun k (sender, value) ->
        { sender; value; outputs = execute ctx ~label:(Printf.sprintf "x%d" k) ~sender ~value })
      messages
end
