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
  let cfg =
    Balanced_ba.default_config ~n ~inputs:(Array.make n false) ~seed:99 ()
  in
  let r = Bc.run ~net:(Repro_net.Network.create ~n ~corrupt ()) cfg ~messages:blocks in
  List.iteri
    (fun height (e : Broadcast.exec_result) ->
      Printf.printf "block %d (leader %3d): finalized=%b consistent=%b (%.0f%% of honest)\n"
        height e.Broadcast.sender e.Broadcast.delivered e.Broadcast.consistent
        (100. *. e.Broadcast.decided_fraction))
    r.Broadcast.execs;
  Printf.printf "\nper-validator communication over %d blocks:\n" (List.length blocks);
  Printf.printf "  max:   %.1f KiB total, %.1f KiB per block\n"
    (float_of_int r.Broadcast.report.Metrics.max_bytes /. 1024.)
    (r.Broadcast.amortized_max_bytes /. 1024.);
  Printf.printf "  mean:  %.1f KiB total\n" (r.Broadcast.report.Metrics.mean_bytes /. 1024.);
  Printf.printf "  max/mean balance ratio: %.1f (no central parties)\n"
    (float_of_int r.Broadcast.report.Metrics.max_bytes
    /. r.Broadcast.report.Metrics.mean_bytes)
