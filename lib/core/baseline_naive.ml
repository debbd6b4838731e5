(* Baseline: trivial flooding boost — every holder of the almost-everywhere
   value sends it to all n parties; receivers output the majority.
   Theta(n) messages per party in one round: the upper anchor the
   scalable protocols are measured against (cf. the Õ(n) rows of
   Table 1). *)

module Network = Repro_net.Network
module Wire = Repro_net.Wire

type config = {
  holders : int list;
  value : bool;
}

let run ~net (cfg : config) =
  let n = Network.n net in
  let honest p = Network.is_honest net p in
  let enc b = Bytes.make 1 (if b then '\001' else '\000') in
  let outputs = Array.make n None in
  let handler p ~round ~inbox =
    if round = 0 then begin
      if List.mem p cfg.holders then
        Network.send_many net ~src:p
          ~dsts:(Array.of_list (List.filter (fun q -> q <> p) (List.init n (fun q -> q))))
          ~tag:"flood" (enc cfg.value)
    end
    else begin
      let votes =
        List.filter_map
          (fun (m : Wire.msg) ->
            if m.Wire.tag = "flood" && Bytes.length m.Wire.payload = 1 then
              Some (Bytes.get m.Wire.payload 0 = '\001')
            else None)
          inbox
      in
      let own = if List.mem p cfg.holders then [ cfg.value ] else [] in
      let t = List.length (List.filter (fun b -> b) (own @ votes)) in
      let f = List.length (own @ votes) - t in
      if t + f > 0 then begin
        outputs.(p) <- Some (t > f);
        Outcome.decide_bit net ~round p (t > f)
      end
    end
  in
  Network.phase net "flood" (fun () ->
      let everyone = Network.everyone net in
      Network.run_active net ~rounds:2
        ~extra:(fun ~round:_ -> everyone)
        (Array.get
           (Array.init n (fun p -> if honest p then Some (handler p) else None))));
  outputs
