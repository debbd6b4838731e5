(* Baseline: King–Saia-style sqrt(n) boost (KS'09 [46] / KS'11 [47] /
   KLST'11 [45] in Table 1): almost-everywhere to everywhere agreement with
   Theta~(sqrt n) per-party communication and no setup.

   Shape-faithful simplification of the quorum approach: parties form
   sqrt(n) index groups of sqrt(n); holders of the almost-everywhere value
   flood their own group; every party adopts the group majority; then each
   party exchanges the group value along its "row" (position-i members of
   every group — another sqrt(n) messages) and outputs the majority. With
   random corruption below 1/3 both majorities are correct w.h.p.; every
   party sends and receives Theta(sqrt n) small messages — the Õ(sqrt n)
   row of Table 1 the paper's SRDS construction beats. *)

module Network = Repro_net.Network
module Metrics = Repro_net.Metrics
module Wire = Repro_net.Wire

type config = {
  n : int;
  corrupt : int list;
  holders : int list; (* honest parties that start with the value *)
  value : bool;
  seed : int;
}

type result = {
  outputs : bool option array;
  agreed : bool;
  correct_fraction : float; (* honest parties outputting the value *)
  report : Metrics.report;
  breakdown : (string * int) list; (* sent bytes per tag group *)
}

let group_size n = max 1 (Repro_util.Mathx.isqrt n)

let run ?sinks ?backend ?condition (cfg : config) : result =
  let n = cfg.n in
  let g = group_size n in
  let num_groups = Repro_util.Mathx.ceil_div n g in
  let group_of p = p / g in
  let members_of_group k = List.filter (fun p -> p < n) (List.init g (fun j -> (k * g) + j)) in
  let row_of p = p mod g in
  let row_members r = List.filter (fun p -> p < n) (List.init num_groups (fun k -> (k * g) + r)) in
  let net = Network.create ?backend ?sinks ~n ~corrupt:cfg.corrupt () in
  Option.iter (Network.set_condition net) condition;
  let honest p = Network.is_honest net p in
  let enc b = Bytes.make 1 (if b then '\001' else '\000') in
  let dec payload =
    if Bytes.length payload = 1 then
      match Bytes.get payload 0 with
      | '\001' -> Some true
      | '\000' -> Some false
      | _ -> None
    else None
  in
  let group_value = Array.make n None in
  let outputs = Array.make n None in
  let majority votes =
    let t = List.length (List.filter (fun b -> b) votes) in
    let f = List.length votes - t in
    if t = 0 && f = 0 then None else Some (t > f)
  in
  let handler p ~round ~inbox =
    if round = 0 then begin
      (* holders flood their group *)
      if List.mem p cfg.holders then
        Network.send_many net ~src:p
          ~dsts:(List.filter (fun q -> q <> p) (members_of_group (group_of p)))
          ~tag:"grp" (enc cfg.value)
    end
    else if round = 1 then begin
      (* adopt group majority (own knowledge included), send along the row *)
      let votes =
        List.filter_map (fun (m : Wire.msg) -> if m.Wire.tag = "grp" then dec m.Wire.payload else None) inbox
      in
      let own = if List.mem p cfg.holders then [ cfg.value ] else [] in
      group_value.(p) <- majority (own @ votes);
      match group_value.(p) with
      | Some v ->
        Network.send_many net ~src:p
          ~dsts:(List.filter (fun q -> q <> p) (row_members (row_of p)))
          ~tag:"row" (enc v)
      | None -> ()
    end
    else begin
      let votes =
        List.filter_map (fun (m : Wire.msg) -> if m.Wire.tag = "row" then dec m.Wire.payload else None) inbox
      in
      let own = match group_value.(p) with Some v -> [ v ] | None -> [] in
      outputs.(p) <- majority (own @ votes);
      match outputs.(p) with
      | Some v when Network.observed net ->
        Network.emit net
          (Repro_obs.Event.Decide { round; party = p; value = (if v then "1" else "0") })
      | _ -> ()
    end
  in
  Network.phase net "quorum" (fun () ->
      let everyone = Network.everyone net in
      Network.run_active net ~rounds:3
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
    correct_fraction = float_of_int correct /. float_of_int (max 1 (List.length honest_list));
    report = Metrics.report ~include_party:honest (Network.metrics net);
    breakdown = Metrics.tag_breakdown (Network.metrics net);
  }
