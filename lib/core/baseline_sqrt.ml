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
module Inbox = Repro_net.Inbox

type config = {
  holders : int list; (* honest parties that start with the value *)
  value : bool;
}

let group_size n = max 1 (Repro_util.Mathx.isqrt n)

let run ~net (cfg : config) =
  let n = Network.n net in
  let g = group_size n in
  let num_groups = Repro_util.Mathx.ceil_div n g in
  let group_of p = p / g in
  let members_of_group k = List.filter (fun p -> p < n) (List.init g (fun j -> (k * g) + j)) in
  let row_of p = p mod g in
  let row_members r = List.filter (fun p -> p < n) (List.init num_groups (fun k -> (k * g) + r)) in
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
  (* The majority of [own] and the inbox's decodable [tag] votes. *)
  let majority ~own ~tag inbox =
    let t = ref 0 and f = ref 0 in
    let count b = if b then incr t else incr f in
    List.iter count own;
    for i = 0 to Inbox.length inbox - 1 do
      if Inbox.tag inbox i = tag then Option.iter count (dec (Inbox.payload inbox i))
    done;
    if !t = 0 && !f = 0 then None else Some (!t > !f)
  in
  let handler p ~round inbox =
    if round = 0 then begin
      (* holders flood their group *)
      if List.mem p cfg.holders then
        Network.send_many net ~src:p
          ~dsts:(Array.of_list (List.filter (fun q -> q <> p) (members_of_group (group_of p))))
          ~tag:"grp" (enc cfg.value)
    end
    else if round = 1 then begin
      (* adopt group majority (own knowledge included), send along the row *)
      let own = if List.mem p cfg.holders then [ cfg.value ] else [] in
      group_value.(p) <- majority ~own ~tag:"grp" inbox;
      match group_value.(p) with
      | Some v ->
        Network.send_many net ~src:p
          ~dsts:(Array.of_list (List.filter (fun q -> q <> p) (row_members (row_of p))))
          ~tag:"row" (enc v)
      | None -> ()
    end
    else begin
      let own = match group_value.(p) with Some v -> [ v ] | None -> [] in
      outputs.(p) <- majority ~own ~tag:"row" inbox;
      Option.iter (Outcome.decide_bit net ~round p) outputs.(p)
    end
  in
  Network.phase net "quorum" (fun () ->
      let everyone = Network.everyone net in
      Network.run_slices net ~rounds:3
        ~extra:(fun ~round:_ -> everyone)
        (Array.get
           (Array.init n (fun p -> if honest p then Some (handler p) else None))));
  outputs
