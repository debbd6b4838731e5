(* The single-round boost in isolation (experiment E11), plus an executable
   illustration of why it *needs* the certificate (Theorems 1.3/1.4).

   Setup: certified almost-everywhere agreement is given — a (1 - iso)
   fraction of the honest parties hold (y, s, sigma) where sigma is a
   genuine SRDS majority aggregate on (y, s); the rest are isolated and
   hold nothing. One round: every holder i sends the certificate to the
   PRF subset F_s(i); an isolated receiver j processes a message from i
   only if j is in F_s(i) (dynamic filtering) and the SRDS signature
   verifies.

   [run] measures the recovered fraction of isolated parties as a function
   of the boost degree. [run_unauthenticated] removes the SRDS
   verification (modelling the no-setup world of Thm. 1.3): a rushing
   adversary that floods isolated parties with a conflicting value then
   splits them — the measured disagreement is the attack surface the lower
   bound formalizes.

   Simulation cost: each F_s(i) is drawn once per run ({!Repro_crypto.Prf.subsets}),
   its candidate draws hashed in batched HMAC calls; the sender fans out to
   the sorted array and a receiver's filter is a binary search in it. *)

module Rng = Repro_util.Rng
module Encode = Repro_util.Encode
module Network = Repro_net.Network
module Inbox = Repro_net.Inbox

type config = {
  isolated_fraction : float; (* of honest parties *)
  degree : int; (* |F_s(i)| *)
  seed : int;
}

type result = {
  recovered_fraction : float; (* isolated honest parties that decided y *)
  fooled_fraction : float; (* isolated honest parties deciding NOT y *)
}

module Make (S : Srds_intf.SCHEME) = struct
  module W = Srds_intf.Wire (S)

  (* Batched aggregation as the tree would do it, 16 children per node. *)
  let aggregate pp ~vks ~msg sigs =
    let merge chunk = S.aggregate2 pp ~msg (S.aggregate1 pp ~vks ~msg chunk) in
    fst (Srds_intf.aggregate_tree ~merge ~batch:16 sigs)

  (* Build a genuine certificate centrally (the challenger plays the
     pipeline's role). *)
  let build_certificate rng ~n_virtual ~y =
    let pp, master = S.setup rng ~n:n_virtual in
    let keys = Array.init n_virtual (fun i -> S.keygen pp master rng ~index:i) in
    let vks = Array.map fst keys in
    let s = Rng.bytes rng Repro_crypto.Hashx.kappa_bytes in
    let payload = Bytes.make 1 (if y then '\001' else '\000') in
    let msg =
      Encode.to_bytes (fun b ->
          Encode.bytes b payload;
          Encode.bytes b s)
    in
    let sigs =
      List.filter_map
        (fun i -> S.sign pp (snd keys.(i)) ~index:i ~msg)
        (List.init n_virtual (fun i -> i))
    in
    match aggregate pp ~vks ~msg sigs with
    | Some sigma when S.verify pp ~vks ~msg sigma -> (pp, vks, keys, msg, s, sigma)
    | _ -> failwith "Boost.build_certificate: could not build a verifying aggregate"

  let split_msg data =
    Encode.decode data (fun src ->
        let payload = Encode.r_bytes src in
        let s = Encode.r_bytes src in
        (payload, s))

  (* Forge a *valid* conflicting certificate using the honest signing keys:
     what an adversary that can invert the one-way function (and hence
     recover signing keys from the published verification keys) would
     compute. This is the Thm. 1.4 attack: in the PKI model, if OWFs do not
     exist, the single-round boost fails even with verification on. *)
  let forge_with_inverted_keys ~pp ~vks ~keys ~s ~y' =
    let payload = Bytes.make 1 (if y' then '\001' else '\000') in
    let msg' =
      Encode.to_bytes (fun b ->
          Encode.bytes b payload;
          Encode.bytes b s)
    in
    let sigs =
      List.filter_map
        (fun i -> S.sign pp (snd keys.(i)) ~index:i ~msg:msg')
        (List.init (Array.length keys) (fun i -> i))
    in
    match aggregate pp ~vks ~msg:msg' sigs with
    | Some sigma ->
      Some
        (Encode.to_bytes (fun b ->
             Encode.bytes b msg';
             Encode.bytes b (W.to_bytes sigma)))
    | None -> None

  (* Runs on [net], the caller's network: its size is n and its mask the
     corrupt set; [Outcome.report net] reads the honest parties' costs. *)
  let run_generic ?(leak_keys = false) ~authenticated ~net (cfg : config) : result =
    let n = Network.n net in
    let rng = Rng.create cfg.seed in
    let y = true in
    let pp, vks, keys, msg, s, sigma = build_certificate rng ~n_virtual:n ~y in
    let cert =
      Encode.to_bytes (fun b ->
          Encode.bytes b msg;
          Encode.bytes b (W.to_bytes sigma))
    in
    let forged_cert =
      if leak_keys then forge_with_inverted_keys ~pp ~vks ~keys ~s ~y':false
      else None
    in
    let honest p = Network.is_honest net p in
    let honest_list = List.filter honest (List.init n (fun p -> p)) in
    let iso_count =
      int_of_float (cfg.isolated_fraction *. float_of_int (List.length honest_list))
    in
    let shuffled = Array.of_list honest_list in
    Rng.shuffle rng shuffled;
    let isolated = Array.sub shuffled 0 iso_count |> Array.to_list in
    let is_isolated p = List.mem p isolated in
    let outputs = Array.make n None in
    let prf_key = Repro_crypto.Prf.of_seed s in
    let subsets = Repro_crypto.Prf.subsets ~n ~size:cfg.degree in
    let accept data =
      match split_msg data with
      | Some (payload, _s') when Bytes.length payload = 1 ->
        Some (Bytes.get payload 0 = '\001')
      | _ -> None
    in
    let sender p =
      if not (is_isolated p) then begin
        outputs.(p) <- Some y;
        let targets = Repro_crypto.Prf.subset_of subsets ~key:prf_key ~index:p in
        Network.send_many net ~src:p ~dsts:targets ~tag:"boost" cert
      end
    in
    (* A rushing adversary flooding the conflicting value. Against the
       authenticated boost it must forge an SRDS aggregate; unauthenticated,
       its flood is indistinguishable from the honest one. *)
    let adversary =
      {
        Network.adv_name = "conflict-flood";
        adv_step =
          (fun net ~round ~honest_staged:_ ->
            if round = 0 then
              List.iter
                (fun c ->
                  let fake_cert =
                    match forged_cert with
                    | Some cert -> cert (* Thm 1.4: genuinely valid forgery *)
                    | None ->
                      let fake_payload = Bytes.make 1 '\000' in
                      let fake_msg =
                        Encode.to_bytes (fun b ->
                            Encode.bytes b fake_payload;
                            Encode.bytes b s)
                      in
                      Encode.to_bytes (fun b ->
                          Encode.bytes b fake_msg;
                          Encode.bytes b (Rng.bytes rng 64))
                  in
                  List.iter
                    (fun p ->
                      if p <> c then Network.send net ~src:c ~dst:p ~tag:"boost" fake_cert)
                    (List.init n (fun p -> p)))
                (Network.corrupt_parties net));
      }
    in
    let receive p inbox i =
      if Inbox.tag inbox i = "boost" && outputs.(p) = None then
        match
          Encode.decode (Inbox.payload inbox i) (fun src ->
              let msg' = Encode.r_bytes src in
              let sig_bytes = Encode.r_bytes src in
              (msg', sig_bytes))
        with
        | Some (msg', sig_bytes) -> (
          match split_msg msg' with
          | Some (_, s') ->
            let member =
              Repro_crypto.Prf.mem
                (Repro_crypto.Prf.subset_of subsets
                   ~key:(Repro_crypto.Prf.of_seed s') ~index:(Inbox.src inbox i))
                p
            in
            let valid =
              if not authenticated then true
              else
                match W.of_bytes sig_bytes with
                | Some sg -> S.verify pp ~vks ~msg:msg' sg
                | None -> false
            in
            if member && valid then begin
              match accept msg' with
              | Some b -> outputs.(p) <- Some b
              | None -> ()
            end
          | None -> ())
        | None -> ()
    in
    (* the rushing adversary schedules in-round delivery: its messages
       arrive first (this is what makes the unauthenticated variant
       attackable; the authenticated one rejects them regardless), so the
       receiver reads the corrupt sources, then the honest, each in
       delivery order *)
    let receiver p ~round:_ inbox =
      for pass = 0 to 1 do
        for i = 0 to Inbox.length inbox - 1 do
          if honest (Inbox.src inbox i) = (pass = 1) then receive p inbox i
        done
      done
    in
    let everyone = Network.everyone net in
    Network.run_slices net ~adversary ~rounds:1
      ~extra:(fun ~round:_ -> everyone)
      (Array.get
         (Array.init n (fun p -> if honest p then Some (fun ~round:_ _ -> sender p) else None)));
    Network.run_slices net ~rounds:1
      ~extra:(fun ~round:_ -> everyone)
      (Array.get
         (Array.init n (fun p -> if honest p then Some (receiver p) else None)));
    let recovered = List.filter (fun p -> outputs.(p) = Some y) isolated in
    let fooled = List.filter (fun p -> outputs.(p) = Some (not y)) isolated in
    {
      recovered_fraction =
        float_of_int (List.length recovered) /. float_of_int (max 1 iso_count);
      fooled_fraction =
        float_of_int (List.length fooled) /. float_of_int (max 1 iso_count);
    }

  let run ~net cfg = run_generic ~authenticated:true ~net cfg

  (* Thm. 1.3 illustration: without verifiable certificates the one-round
     boost is attackable. *)
  let run_unauthenticated ~net cfg = run_generic ~authenticated:false ~net cfg

  (* Thm. 1.4 illustration: in the PKI model with a broken one-way function
     (the adversary recovers signing keys from verification keys), the
     boost fails even with full verification: the adversary's conflicting
     certificate is genuinely valid. *)
  let run_with_inverted_owf ~net cfg =
    run_generic ~leak_keys:true ~authenticated:true ~net cfg
end
