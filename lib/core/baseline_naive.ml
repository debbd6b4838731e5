(* Baseline: trivial flooding boost — every holder of the almost-everywhere
   value sends it to all n parties; receivers output the majority.
   Theta(n) messages per party in one round: the upper anchor the
   scalable protocols are measured against (cf. the Õ(n) rows of
   Table 1). *)

module Network = Repro_net.Network
module Metrics = Repro_net.Metrics
module Wire = Repro_net.Wire

type config = {
  n : int;
  holders : int list;
  value : bool;
  seed : int;
}

type result = {
  outputs : bool option array;
  agreed : bool;
  decided_fraction : float; (* honest parties that produced an output *)
  correct_fraction : float;
  report : Metrics.report;
  breakdown : (string * int) list; (* sent bytes per tag group *)
}

let run ~net (cfg : config) : result =
  let n = cfg.n in
  if Network.n net <> n then
    invalid_arg
      (Printf.sprintf "Baseline_naive.run: network of n=%d given a run with n=%d"
         (Network.n net) n);
  let honest p = Network.is_honest net p in
  let enc b = Bytes.make 1 (if b then '\001' else '\000') in
  let outputs = Array.make n None in
  let note_decide ~round p v =
    if Network.observed net then
      Network.emit net
        (Repro_obs.Event.Decide { round; party = p; value = (if v then "1" else "0") })
  in
  let handler p ~round ~inbox =
    if round = 0 then begin
      if List.mem p cfg.holders then
        Network.send_many net ~src:p
          ~dsts:(List.filter (fun q -> q <> p) (List.init n (fun q -> q)))
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
        note_decide ~round p (t > f)
      end
    end
  in
  Network.phase net "flood" (fun () ->
      let everyone = Network.everyone net in
      Network.run_active net ~rounds:2
        ~extra:(fun ~round:_ -> everyone)
        (Array.get
           (Array.init n (fun p -> if honest p then Some (handler p) else None))));
  let honest_list = List.filter honest (List.init n (fun p -> p)) in
  let decided = List.filter_map (fun p -> outputs.(p)) honest_list in
  let agreed =
    match decided with [] -> false | d :: rest -> List.for_all (fun x -> x = d) rest
  in
  let correct =
    List.length (List.filter (fun p -> outputs.(p) = Some cfg.value) honest_list)
  in
  {
    outputs;
    agreed;
    decided_fraction =
      float_of_int (List.length decided) /. float_of_int (max 1 (List.length honest_list));
    correct_fraction = float_of_int correct /. float_of_int (max 1 (List.length honest_list));
    report = Metrics.report ~include_party:honest (Network.metrics net);
    breakdown = Metrics.tag_breakdown (Network.metrics net);
  }
