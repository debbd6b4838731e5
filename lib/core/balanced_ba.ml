(* The balanced Byzantine agreement protocol of Figure 3 (Theorem 1.1/3.1):
   polylog(n)-per-party communication BA from any SRDS scheme, in the
   (f_ae-comm, f_ba, f_ct, f_aggr-sig)-hybrid model with every
   functionality realized by this repository's substrates.

   The protocol factors into a reusable *certification pipeline* — given
   that the supreme committee holds a payload, produce certified
   almost-everywhere agreement on it and boost to full agreement in one
   round — plus a committee BA deciding what the payload is. The broadcast
   corollary (Cor. 1.2) reuses the same pipeline with a different payload
   source; see broadcast.ml.

   Phase map (Fig. 3 step numbers in parentheses):

     A  setup (uncharged, per the model): SRDS pp and per-virtual-ID keys
        (the [setup] value, one per (n, seed)); the slot assignment (the
        idmap) is fixed from public randomness; the adversary corrupts
        *after* seeing all of it.
     B  f_ae-comm first call (1): the election protocol seeds the tree.
     C  supreme committee: f_ba on input bits (2) and f_ct (2).
     D  f_ae-comm: disseminate (y, s) (3).
     E  sign per virtual identity, send to leaf committees (4).
     F  per level: Aggregate1 + step-5c range checks + f_aggr-sig (5).
     G  f_ae-comm: disseminate (y, s, sigma_root) (6).
     H  boost: send to F_s(i); accept iff member check + SRDS verify (7-8).

   Every message is serialized bytes through the metered network; the
   reported per-party communication is exactly what the theorem bounds. *)

module Rng = Repro_util.Rng
module Encode = Repro_util.Encode
module Network = Repro_net.Network
module Engine = Repro_net.Engine
module Inbox = Repro_net.Inbox
module Params = Repro_aetree.Params
module Tree = Repro_aetree.Tree
module Ae_comm = Repro_aetree.Ae_comm
module Phase_king = Repro_consensus.Phase_king
module Coin_toss = Repro_consensus.Coin_toss
module Members = Repro_consensus.Members

type config = {
  inputs : bool array; (* per-party input bit, one per party of the network *)
  seed : int;
  adversary : Repro_net.Network.adversary option;
      (* active network adversary, invoked every round of every phase *)
}

type result = {
  outputs : bool option array;
  y : bool option; (* supreme committee's agreed bit *)
  tree_good : bool;
}

let default_config ?adversary ~inputs ~seed () = { inputs; seed; adversary }

(* Validity (Thm 1.1): if the honest inputs are unanimously b, the honest
   parties decide, and on b. *)
let outcome net (cfg : config) (r : result) =
  Outcome.of_outputs net ~outputs:r.outputs
    ~expected:(Outcome.unanimous net cfg.inputs)

(* Each protocol phase is a [Repro_obs.Trace] span (category "ba"), so
   phase structure lands in the exported Chrome trace, and a network phase
   mark, so the auditor's timeline and the flight recorder's log carry the
   same name. *)
let timed net name f =
  Network.phase net name @@ fun () -> Repro_obs.Trace.span ~cat:"ba" name f

module Make (S : Srds_intf.SCHEME) = struct
  module W = Srds_intf.Wire (S)
  module B = Srds_intf.Batch (S)
  module Agg = Aggr_sig.Make (S)

  (* Phase A's key material: the per-slot SRDS key pairs over
     [Params.default n] virtual slots, drawn from the run's "srds-setup"
     stream. It depends on (n, seed) alone, never on the corrupt set,
     adversary or network condition, so one value serves every run with
     that (n, seed). Nothing in it is mutated after keygen: each context
     copies the key arrays and re-runs [S.setup] for its own [pp] (a
     scheme's pp may carry mutable caches). *)
  type setup = {
    s_n : int;
    s_seed : int;
    keys : (bytes * S.sk) array; (* (vk, sk) per virtual slot *)
  }

  let setup_stream seed = Rng.of_label (Rng.create seed) "srds-setup"

  let setup ~n ~seed =
    let num_slots = (Params.default n).Params.num_slots in
    let setup_rng = setup_stream seed in
    let pp, master = S.setup setup_rng ~n:num_slots in
    let keys =
      Repro_obs.Trace.span ~cat:"ba" "A: keygen" (fun () ->
          (* Fanned out on the domain pool; per-slot rng children keep the
             result independent of the pool size. *)
          B.keygen_all pp master setup_rng ~count:num_slots)
    in
    { s_n = n; s_seed = seed; keys }

  (* Execution context shared by BA and broadcast: network, tree, SRDS
     keys. Building it finishes phase A and runs phase B on the caller's
     network, whose mask is the run's corrupt set. *)
  type ctx = {
    net : Network.t;
    rng : Rng.t;
    params : Params.t;
    ae : Ae_comm.t;
    tree : Tree.t;
    pp : S.pp;
    vks : bytes array;
    sks : S.sk array;
    supreme : int list;
    boost_degree : int; (* |F_s(i)|: 2 * committee size, below n *)
    adversary : Network.adversary option;
  }

  let make_ctx ~net ~setup (cfg : config) : ctx =
    let n = Network.n net in
    if setup.s_n <> n || setup.s_seed <> cfg.seed then
      invalid_arg
        (Printf.sprintf
           "Balanced_ba.make_ctx: setup for (n=%d, seed=%d) given a run with \
            (n=%d, seed=%d)"
           setup.s_n setup.s_seed n cfg.seed);
    if Array.length cfg.inputs <> n then
      invalid_arg
        (Printf.sprintf
           "Balanced_ba.make_ctx: %d inputs given a network of n=%d"
           (Array.length cfg.inputs) n);
    Repro_crypto.Wots.clear_cache ();
    let rng = Rng.create cfg.seed in
    let params = Params.default n in
    (* Phase A: uncharged setup. The keys come from [setup]; the slot
       assignment and this run's pp are re-derived from the same seed. *)
    let slot_party = Tree.assignment params (Rng.of_label rng "assignment") in
    let pp, _master = S.setup (setup_stream cfg.seed) ~n:params.Params.num_slots in
    (* Phase B: election establishes the tree. *)
    let ae =
      timed net "B: election" (fun () ->
          Ae_comm.establish_with_assignment net params ~slot_party
            ~rng:(Rng.of_label rng "election"))
    in
    let tree = Ae_comm.tree ae in
    (* Committee memberships are public outputs of the election: record the
       whole tree plus the supreme committee so forensic consumers can tie
       message flow to committee structure without re-deriving the tree. *)
    if Network.observed net then begin
      let round = Network.round net in
      let committee ~level ~idx members =
        Network.emit net
          (Repro_obs.Event.Committee { round; level; idx; members = Array.to_list members })
      in
      for level = 1 to params.Params.height do
        for idx = 0 to Tree.nodes_at_level tree ~level - 1 do
          committee ~level ~idx (Tree.assigned tree ~level ~idx)
        done
      done;
      committee ~level:(params.Params.height + 1) ~idx:0 (Tree.supreme_committee tree)
    end;
    {
      net;
      rng;
      params;
      ae;
      tree;
      pp;
      vks = Array.map fst setup.keys;
      sks = Array.map snd setup.keys;
      supreme = Array.to_list (Tree.supreme_committee tree);
      boost_degree = min (n - 1) (2 * params.Params.committee_size);
      adversary = cfg.adversary;
    }

  let honest ctx p = Network.is_honest ctx.net p

  (* (payload, s) message the SRDS certifies. *)
  let msg_of_pair ~payload ~s =
    Encode.to_bytes (fun b ->
        Encode.bytes b payload;
        Encode.bytes b s)

  let pair_of_msg data =
    Encode.decode data (fun src ->
        let payload = Encode.r_bytes src in
        let s = Encode.r_bytes src in
        (payload, s))

  (* The certification pipeline: phases C(coin) through H. [values p] is
     supreme member p's payload (honest members agree on it beforehand).
     Returns, per party, the certified payload it decided on. *)
  let certify ctx ~label ~values : bytes option array =
    let n = Network.n ctx.net in
    let net = ctx.net in
    let timed name f = timed net name f in
    let params = ctx.params in
    let tree = ctx.tree in
    (* One round in which [senders] (ascending) run [send], then one
       delivery-driven round in which every honest party runs [recv]. *)
    let exchange ~senders ~send ~recv =
      let handlers = Array.make n None in
      List.iter (fun p -> handlers.(p) <- Some (fun ~round:_ _ -> send p)) senders;
      Network.run_slices net ?adversary:ctx.adversary ~rounds:1
        ~extra:(fun ~round:_ -> senders)
        (Array.get handlers);
      Network.run_slices net ?adversary:ctx.adversary ~rounds:1
        ~extra:(fun ~round:_ -> [])
        (fun p -> if honest ctx p then Some (recv p) else None)
    in

    (* --- coin toss (f_ct) among the supreme committee --- *)
    let coin_states = Hashtbl.create 16 in
    let coin_shared = Coin_toss.shared () in
    List.iter
      (fun p ->
        if honest ctx p then
          Hashtbl.replace coin_states p
            (Coin_toss.create ~shared:coin_shared ~members:ctx.supreme ~me:p
               ~rng:(Rng.of_label ctx.rng (Printf.sprintf "coin-%s-%d" label p))))
      ctx.supreme;
    timed "C2: coin toss" (fun () ->
        Engine.run net ?adversary:ctx.adversary
          ~tag:("coin-" ^ label)
          ~rounds:(Coin_toss.rounds ~members:ctx.supreme)
          ~machines:(fun p ->
            match Hashtbl.find_opt coin_states p with
            | Some ct -> [ ("coin", Coin_toss.machine ct) ]
            | None -> [])
          ());
    Network.flush net;
    let s_of p = Option.bind (Hashtbl.find_opt coin_states p) Coin_toss.output in

    (* --- Phase D: disseminate (payload, s) --- *)
    let pair_values p =
      match (values p, s_of p) with
      | Some payload, Some s -> Some (msg_of_pair ~payload ~s)
      | _ -> None
    in
    let received_pair =
      timed "D: disseminate pair" (fun () ->
          Ae_comm.disseminate ?adversary:ctx.adversary net ctx.ae
            ~label:("pair-" ^ label) ~values:pair_values)
    in
    Network.flush net;

    (* --- Phase E: sign per virtual identity, send to leaf committees --- *)
    (* Lazily materialized: only committee members ever hold signatures, so
       the table array stays sparse at large n. *)
    let incoming : (int * int, bytes list) Hashtbl.t option array =
      Array.make n None
    in
    let incoming_tbl p =
      match incoming.(p) with
      | Some h -> h
      | None ->
        let h = Hashtbl.create 8 in
        incoming.(p) <- Some h;
        h
    in
    let incoming_find p key =
      match incoming.(p) with
      | None -> []
      | Some h -> ( try Hashtbl.find h key with Not_found -> [])
    in
    let sig_tag = "sig-" ^ label in
    let sign_handler p =
      match received_pair.(p) with
      | Some pair_bytes ->
        List.iter
          (fun slot ->
            match S.sign ctx.pp ctx.sks.(slot) ~index:slot ~msg:pair_bytes with
            | Some sg ->
              let leaf = Params.leaf_of_slot params slot in
              let payload =
                Encode.to_bytes (fun b ->
                    Encode.varint b leaf;
                    S.encode_sig b sg)
              in
              Network.send_many net ~src:p
                ~dsts:(Tree.assigned tree ~level:1 ~idx:leaf)
                ~tag:sig_tag payload
            | None -> ())
          (Tree.party_slots tree p)
      | None -> ()
    in
    (* One signature multicast reaches a whole leaf committee; the memoized
       decode copies the signature bytes out once, not once per member. *)
    let dec_sig =
      Encode.memo_decode (fun src ->
          let leaf = Encode.r_varint src in
          let rest = Encode.r_bytes_raw src (Encode.remaining src) in
          (leaf, rest))
    in
    let collect_handler p ~round:_ inbox =
      for i = 0 to Inbox.length inbox - 1 do
        if Inbox.tag inbox i = sig_tag then
          match dec_sig (Inbox.payload inbox i) with
          | Some (leaf, sig_bytes) when leaf >= 0 && leaf < params.Params.num_leaves ->
            let key = (1, leaf) in
            Hashtbl.replace (incoming_tbl p) key
              (sig_bytes :: incoming_find p key)
          | _ -> ()
      done
    in
    (* Only slot owners holding the pair sign, and collection is
       delivery-driven. *)
    let signers =
      List.filter
        (fun p ->
          honest ctx p && received_pair.(p) <> None
          && Tree.party_slots tree p <> [])
        (Network.everyone net)
    in
    timed "E: sign+send" (fun () ->
        exchange ~senders:signers ~send:sign_handler ~recv:collect_handler;
        Network.flush net);

    (* --- Phase F: aggregate up the tree (f_aggr-sig per node) --- *)
    for level = 1 to params.Params.height do
      timed (Printf.sprintf "F: level %d" level) @@ fun () ->
      let node_count = Tree.nodes_at_level tree ~level in
      let agree_states : (int * int, Repro_consensus.Committee.t) Hashtbl.t =
        Hashtbl.create 64
      in
      let shared = Agg.shared ~pp:ctx.pp ~vks:ctx.vks ~tree ~level in
      (* One sorted membership per node, shared by its members' instances. *)
      let members =
        Array.init node_count (fun idx ->
            Members.of_list (Array.to_list (Tree.assigned tree ~level ~idx)))
      in
      for idx = 0 to node_count - 1 do
        Array.iter
          (fun p ->
            if honest ctx p then begin
              match received_pair.(p) with
              | None -> ()
              | Some msg ->
                let raw = incoming_find p (level, idx) in
                Hashtbl.replace agree_states (idx, p)
                  (Agg.instance shared ~idx ~members:members.(idx) ~me:p ~msg ~raw)
            end)
          (Tree.assigned tree ~level ~idx)
      done;
      (* committees differ in size (distinct slot owners per leaf), so run
         enough rounds for the largest instance at this level *)
      let agree_rounds =
        Array.fold_left (fun r ms -> max r (Agg.rounds ~members:ms)) 0 members
      in
      (* Each party's instances, in the reverse of the table's iteration
         order: what filtering one fold over the table per party gives. *)
      let by_party = Array.make n [] in
      Hashtbl.fold (fun (idx, q) st () -> by_party.(q) <- (idx, st) :: by_party.(q))
        agree_states ();
      Engine.run net ?adversary:ctx.adversary
        ~tag:(Printf.sprintf "aggr-%s-%d" label level)
        ~rounds:agree_rounds
        ~machines:(fun p ->
          List.map
            (fun (idx, st) -> (string_of_int idx, Repro_consensus.Committee.machine st))
            by_party.(p))
        ();
      Network.flush net;
      if level < params.Params.height then begin
        (* forward agreed node signatures to the parent committees *)
        let up_tag = "up-" ^ label in
        let forward_handler p =
          List.iter
            (fun (idx, st) ->
              match Agg.output st with
              | Some payload ->
                let parent = idx / params.Params.branching in
                let payload' =
                  Encode.to_bytes (fun b ->
                      Encode.varint b idx;
                      Encode.bytes_raw b payload)
                in
                Network.send_many net ~src:p
                  ~dsts:(Tree.assigned tree ~level:(level + 1) ~idx:parent)
                  ~tag:up_tag payload'
              | None -> ())
            (List.rev by_party.(p))
        in
        let dec_up =
          Encode.memo_decode (fun src ->
              let idx = Encode.r_varint src in
              let rest = Encode.r_bytes_raw src (Encode.remaining src) in
              (idx, rest))
        in
        let collect_up p ~round:_ inbox =
          for i = 0 to Inbox.length inbox - 1 do
            if Inbox.tag inbox i = up_tag then
              match dec_up (Inbox.payload inbox i) with
              | Some (child_idx, sig_bytes) ->
                let parent = child_idx / params.Params.branching in
                let key = (level + 1, parent) in
                Hashtbl.replace (incoming_tbl p) key
                  (sig_bytes :: incoming_find p key)
              | None -> ()
          done
        in
        (* Only this level's committee members can have an instance to
           forward; everyone else is a no-op. Collection is delivery-driven. *)
        let forwarders =
          List.sort_uniq compare
            (Hashtbl.fold (fun (_, q) _ acc -> q :: acc) agree_states [])
        in
        exchange ~senders:forwarders ~send:forward_handler ~recv:collect_up;
        Network.flush net
      end
      else
        Hashtbl.iter
          (fun (idx, q) st ->
            if idx = 0 then
              match Agg.output st with
              | Some payload -> Hashtbl.replace (incoming_tbl q) (-1, -1) [ payload ]
              | None -> ())
          agree_states;
    done;

    (* --- Phase G: disseminate (payload, s, sigma_root) --- *)
    let cert_values p =
      match (received_pair.(p), incoming_find p (-1, -1)) with
      | Some pair_bytes, [ sig_bytes ] ->
        Some
          (Encode.to_bytes (fun b ->
               Encode.bytes b pair_bytes;
               Encode.bytes b sig_bytes))
      | _ -> None
    in
    let received_cert =
      timed "G: disseminate cert" (fun () ->
          Ae_comm.disseminate ?adversary:ctx.adversary net ctx.ae
            ~label:("cert-" ^ label) ~values:cert_values)
    in
    Network.flush net;

    (* --- Phase H: the single boost round --- *)
    let outputs = Array.make n None in
    (* Certificates are the largest payloads in the protocol and — being
       disseminated — almost every party holds the same physical buffer, so
       memoizing the decode collapses n copies into one. *)
    let decode_cert =
      Encode.memo_decode (fun src ->
          let pair_bytes = Encode.r_bytes src in
          let sig_bytes = Encode.r_bytes src in
          (pair_bytes, sig_bytes))
    in
    let pair_of_msg = Encode.memo_decode (fun src ->
        let payload = Encode.r_bytes src in
        let s = Encode.r_bytes src in
        (payload, s))
    in
    (* A party decides the moment it first accepts a verifying certificate;
       that moment (party, round, value) is a recorded event — the anchor
       the causal-cone extractor explains backwards from. *)
    let note_decide ~round p payload =
      if Network.observed net then
        let value =
          if Bytes.length payload = 1 then
            if Bytes.get payload 0 = '\000' then "0" else "1"
          else
            Repro_obs.Recorder.(hex_of_digest (digest_of_payload payload))
        in
        Network.emit net (Repro_obs.Event.Decide { round; party = p; value })
    in
    (* Every holder and every boost receiver checks the same few
       certificates: decode each signature once per content, and keep one
       verdict per distinct (pair, signature) content, found by pointer
       first and by bytes otherwise. [S.verify] is a pure function of those
       bytes. *)
    let decode_sig = Encode.memo_decode S.decode_sig in
    let verdicts = ref [] in
    let verified pair_bytes sig_bytes =
      match
        List.find_opt
          (fun (pb, sb, _) ->
            (pb == pair_bytes && sb == sig_bytes)
            || (Bytes.equal pb pair_bytes && Bytes.equal sb sig_bytes))
          !verdicts
      with
      | Some (_, _, ok) -> ok
      | None ->
        let ok =
          match decode_sig sig_bytes with
          | Some sg -> S.verify ctx.pp ~vks:ctx.vks ~msg:pair_bytes sg
          | None -> false
        in
        verdicts := (pair_bytes, sig_bytes, ok) :: !verdicts;
        ok
    in
    let accept p ~round pair_bytes sig_bytes =
      match pair_of_msg pair_bytes with
      | Some (payload, _s) when verified pair_bytes sig_bytes ->
        if outputs.(p) = None then begin
          outputs.(p) <- Some payload;
          note_decide ~round p payload
        end;
        true
      | _ -> false
    in
    (* Simulation cost: F_s(i) is drawn once per (s, i) for the run, its
       candidates hashed in batched HMAC calls. A sender fans out to the
       sorted array, and a receiver's step-8 filter is a binary search in
       the sender's array, not a redraw of the subset. *)
    let boost_tag = "boost-" ^ label in
    let subsets = Repro_crypto.Prf.subsets ~n ~size:ctx.boost_degree in
    let boost_send p =
      match received_cert.(p) with
      | Some cert -> (
        match decode_cert cert with
        | Some (pair_bytes, sig_bytes) -> (
          match pair_of_msg pair_bytes with
          | Some (_payload, s) ->
            ignore (accept p ~round:(Network.round net) pair_bytes sig_bytes);
            let targets =
              Repro_crypto.Prf.subset_of subsets ~key:(Repro_crypto.Prf.of_seed s) ~index:p
            in
            Network.send_many net ~src:p ~dsts:targets ~tag:boost_tag cert
          | None -> ())
        | None -> ())
      | None -> ()
    in
    let boost_recv p ~round inbox =
      for i = 0 to Inbox.length inbox - 1 do
        if Inbox.tag inbox i = boost_tag && outputs.(p) = None then
          match decode_cert (Inbox.payload inbox i) with
          | Some (pair_bytes, sig_bytes) -> (
            match pair_of_msg pair_bytes with
            | Some (_payload, s) ->
              (* dynamic filtering (Fig. 3 step 8): process only when this
                 party belongs to the sender's PRF subset *)
              if
                Repro_crypto.Prf.mem
                  (Repro_crypto.Prf.subset_of subsets
                     ~key:(Repro_crypto.Prf.of_seed s) ~index:(Inbox.src inbox i))
                  p
              then ignore (accept p ~round pair_bytes sig_bytes)
            | None -> ())
          | None -> ()
      done
    in
    (* Senders are exactly the cert holders; receivers are delivery-driven. *)
    let boosters =
      List.filter
        (fun p -> honest ctx p && received_cert.(p) <> None)
        (Network.everyone net)
    in
    timed "H: boost round" (fun () ->
        exchange ~senders:boosters ~send:boost_send ~recv:boost_recv);
    outputs

  (* --- the full Byzantine agreement protocol --- *)

  let run ~net ~setup (cfg : config) : result =
    let ctx = make_ctx ~net ~setup cfg in
    let timed name f = timed ctx.net name f in
    let corrupt p = Network.is_corrupt ctx.net p in
    let tree_good = Repro_aetree.Tree_check.check_goodness ctx.tree ~corrupt = [] in

    (* Phase C1: supreme committee BA on the input bits (f_ba). *)
    let pk_states = Hashtbl.create 16 in
    List.iter
      (fun p ->
        if honest ctx p then
          Hashtbl.replace pk_states p
            (Phase_king.create ~members:ctx.supreme ~me:p ~input:cfg.inputs.(p)))
      ctx.supreme;
    timed "C1: supreme BA" (fun () ->
        Engine.run ctx.net ?adversary:ctx.adversary ~tag:"supreme-ba"
          ~rounds:(Phase_king.rounds ~members:ctx.supreme)
          ~machines:(fun p ->
            match Hashtbl.find_opt pk_states p with
            | Some pk -> [ ("ba", Phase_king.machine pk) ]
            | None -> [])
          ());
    Network.flush ctx.net;
    let y_of p = Option.bind (Hashtbl.find_opt pk_states p) Phase_king.output in
    let supreme_honest = List.filter (honest ctx) ctx.supreme in
    let y = match supreme_honest with [] -> None | p :: _ -> y_of p in

    (* Certify and boost the agreed bit. *)
    let values p =
      Option.map (fun b -> Bytes.make 1 (if b then '\001' else '\000')) (y_of p)
    in
    let certified = certify ctx ~label:"ba" ~values in
    let outputs =
      Array.map
        (Option.map (fun payload -> Bytes.length payload = 1 && Bytes.get payload 0 = '\001'))
        certified
    in

    { outputs; y; tree_good }
end
