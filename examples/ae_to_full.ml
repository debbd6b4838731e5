(* From almost-everywhere to everywhere in one round — and why the
   certificate matters.

   Almost-everywhere agreement leaves an o(1) fraction of honest parties
   isolated: they do not know the agreed value and do not even know that
   they are isolated. This example sets up exactly that state, then runs
   the paper's single boost round (Fig. 3 steps 7-8): holders send the
   SRDS-certified value to a pseudorandom polylog-size subset F_s(i); a
   receiver j processes only messages from senders i with j in F_s(i).

   It then re-runs the round with verification turned OFF, against the
   same flooding adversary — the empirical face of Theorem 1.3's lower
   bound (no single-round boost without private-coin setup).

     dune exec examples/ae_to_full.exe *)

open Repro_core
module B = Boost.Make (Srds_owf)

let () =
  let n = 300 in
  let rng = Repro_util.Rng.create 5 in
  let corrupt = Repro_util.Rng.subset rng ~n ~size:30 in
  (* each run gets a fresh network whose mask is the corrupt set *)
  let net () = Repro_net.Network.create ~n ~corrupt () in
  Printf.printf "n=%d, corrupt=%d, isolated=15%% of honest parties\n\n" n
    (List.length corrupt);

  print_endline "boost degree sweep (authenticated, SRDS-certified):";
  List.iter
    (fun degree ->
      let r = B.run ~net:(net ()) { Boost.isolated_fraction = 0.15; degree; seed = 5 } in
      Printf.printf
        "  |F_s(i)| = %-3d -> %5.1f%% of isolated parties recovered, %4.1f%% fooled\n"
        degree
        (100. *. r.Boost.recovered_fraction)
        (100. *. r.Boost.fooled_fraction))
    [ 2; 4; 8; 16; 32 ];

  print_newline ();
  print_endline "same round, same flooding adversary, NO certificate verification:";
  let r =
    B.run_unauthenticated ~net:(net ())
      { Boost.isolated_fraction = 0.15; degree = 16; seed = 5 }
  in
  Printf.printf "  %5.1f%% recovered, %5.1f%% FOOLED into the wrong value\n"
    (100. *. r.Boost.recovered_fraction)
    (100. *. r.Boost.fooled_fraction);
  print_endline "  (this is the attack surface behind Theorem 1.3: without";
  print_endline "   private-coin setup, one-round boosting is impossible)"
