(* Scenario: a large validator set finalizing blocks.

   A committee of 150 validators must agree, block after block, on the hash
   proposed by a rotating leader — with some validators Byzantine, and
   without any validator shouldering Theta(n) communication (the imbalance
   the paper's introduction motivates: prior protocols relied on "central
   parties"). The broadcast corollary (Cor. 1.2) amortizes the tree/PKI
   setup across blocks.

     dune exec examples/validator_vote.exe *)

open Repro_core
module Bc = Broadcast.Make (Srds_snark)
module Metrics = Repro_net.Metrics

let () =
  let n = 150 in
  let rng = Repro_util.Rng.create 99 in
  let corrupt = Repro_util.Rng.subset rng ~n ~size:15 in
  Printf.printf "validators: %d, Byzantine: %d\n" n (List.length corrupt);

  (* five consecutive blocks, each proposed by a rotating leader *)
  let honest_leaders =
    List.filter (fun p -> not (List.mem p corrupt)) [ 4; 31; 77; 102; 149 ]
  in
  let blocks =
    List.mapi
      (fun height leader ->
        let block =
          Repro_crypto.Hashx.hash_string ~tag:"block"
            (Printf.sprintf "height=%d txs=..." height)
        in
        (leader, block))
      honest_leaders
  in
  let cfg = Balanced_ba.default_config ~inputs:(Array.make n false) ~seed:99 () in
  let net = Repro_net.Network.create ~n ~corrupt () in
  let execs = Bc.run ~net cfg ~messages:blocks in
  List.iteri
    (fun height (e : Broadcast.exec) ->
      (* consistent: the honest validators agree; finalized: on the
         leader's block *)
      let o = Outcome.of_outputs net ~outputs:e.outputs ~expected:(Some e.value) in
      Printf.printf "block %d (leader %3d): finalized=%b consistent=%b (%.0f%% of honest)\n"
        height e.sender (Broadcast.delivered net e o) o.agreed
        (100. *. o.decided_fraction))
    execs;
  let report = Outcome.report net in
  Printf.printf "\nper-validator communication over %d blocks:\n" (List.length blocks);
  Printf.printf "  max:   %.1f KiB total, %.1f KiB per block\n"
    (float_of_int report.Metrics.max_bytes /. 1024.)
    (float_of_int report.Metrics.max_bytes /. float_of_int (List.length blocks) /. 1024.);
  Printf.printf "  mean:  %.1f KiB total\n" (report.Metrics.mean_bytes /. 1024.);
  Printf.printf "  max/mean balance ratio: %.1f (no central parties)\n"
    (float_of_int report.Metrics.max_bytes /. report.Metrics.mean_bytes)
