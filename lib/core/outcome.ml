(* The verdict of one run, judged from the protocol's per-party outputs
   and the network it ran on. Every protocol of Table 1 returns only what
   it alone knows (its outputs, plus its own diagnostics); agreement,
   validity, the decided and correct fractions, the honest parties'
   communication report and the per-phase breakdown are derived here, once.
   "Honest" is the network's mask after the run, so a party an adaptive
   condition corrupted mid-run counts as corrupt. *)

module Network = Repro_net.Network
module Metrics = Repro_net.Metrics

type t = {
  agreed : bool;
  valid : bool;
  decided_fraction : float;
  correct_fraction : float;
  report : Metrics.report;
  breakdown : (string * int) list;
}

let report net =
  Metrics.report ~include_party:(Network.is_honest net) (Network.metrics net)

let unanimous net inputs =
  match Network.honest_parties net with
  | [] -> None
  | p :: rest ->
    if List.for_all (fun q -> inputs.(q) = inputs.(p)) rest then Some inputs.(p)
    else None

let of_outputs net ~outputs ~expected =
  let honest = Network.honest_parties net in
  let decided = List.filter_map (fun p -> outputs.(p)) honest in
  let agreed =
    match decided with [] -> false | d :: rest -> List.for_all (( = ) d) rest
  in
  let fraction k = float_of_int k /. float_of_int (max 1 (List.length honest)) in
  let correct, valid =
    match expected with
    | None -> (0, true)
    | Some v ->
      ( List.length (List.filter (fun p -> outputs.(p) = Some v) honest),
        decided <> [] && List.for_all (( = ) v) decided )
  in
  {
    agreed;
    valid;
    decided_fraction = fraction (List.length decided);
    correct_fraction = fraction correct;
    report = report net;
    breakdown = Metrics.tag_breakdown (Network.metrics net);
  }

let decide_bit net ~round p v =
  if Network.observed net then
    Network.emit net
      (Repro_obs.Event.Decide { round; party = p; value = (if v then "1" else "0") })
