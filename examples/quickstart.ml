(* Quickstart: run balanced Byzantine agreement among 128 parties, 10% of
   them corrupt, using the SNARK-based SRDS, and print what happened.

     dune exec examples/quickstart.exe *)

open Repro_core

(* Instantiate the Fig. 3 protocol with an SRDS scheme. Swap in
   [Srds_owf] for the trusted-PKI/one-way-function construction. *)
module BA = Balanced_ba.Make (Srds_snark)

let () =
  let n = 128 in
  let rng = Repro_util.Rng.create 2024 in

  (* a static adversary corrupts 10% of the parties: the network's mask
     is the run's corrupt set *)
  let corrupt = Repro_util.Rng.subset rng ~n ~size:(n / 10) in
  let net = Repro_net.Network.create ~n ~corrupt () in

  (* parties disagree on the input bit: even parties say true *)
  let inputs = Array.init n (fun i -> i mod 2 = 0) in

  let cfg = Balanced_ba.default_config ~inputs ~seed:2024 () in
  (* phase A: the SRDS keys, a function of (n, seed) alone *)
  let setup = BA.setup ~n ~seed:2024 in
  let result = BA.run ~net ~setup cfg in
  (* the verdict: agreement, validity and the honest parties' costs *)
  let o = Balanced_ba.outcome net cfg result in
  let report = o.Outcome.report in

  Printf.printf "parties:            %d (%d corrupt)\n" n (List.length corrupt);
  Printf.printf "agreement reached:  %b\n" o.Outcome.agreed;
  Printf.printf "decided fraction:   %.2f of honest parties\n"
    o.Outcome.decided_fraction;
  Printf.printf "agreed bit:         %s\n"
    (match result.Balanced_ba.y with
    | Some b -> string_of_bool b
    | None -> "(none)");
  Printf.printf "rounds:             %d\n" report.Repro_net.Metrics.rounds;
  Printf.printf "max communication:  %.1f KiB per party\n"
    (float_of_int report.Repro_net.Metrics.max_bytes /. 1024.);
  Printf.printf "mean communication: %.1f KiB per party\n"
    (report.Repro_net.Metrics.mean_bytes /. 1024.);
  Printf.printf "max locality:       %d distinct peers\n"
    report.Repro_net.Metrics.max_locality;
  if o.Outcome.agreed && o.Outcome.valid then
    print_endline "OK: balanced Byzantine agreement succeeded."
  else begin
    print_endline "FAILURE: inspect the configuration.";
    exit 1
  end
