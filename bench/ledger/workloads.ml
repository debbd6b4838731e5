(* The reference workloads: the one public entry point each timed process
   calls, the outcome it checks, and the SRDS set-up it pays. Each workload
   stresses a different layer, so a gain on one cannot hide a loss on
   another:

   - owf-sync: light crypto; the wall splits between the network substrate
     and the protocol machines, with heavy encode-memo reuse.
   - snark-sync: the same tree and rounds, bound by crypto (SNARK/PCD
     proving inside aggregation and 5x-slot keygen).
   - owf-async-delay: owf-sync's protocol and n on the async executor under
     a delay condition and an equivocating adversary, so the difference is
     the event heap, condition routing and the adversary.
   - conditions-40: the E19 slice, 40 small cells over owf, snark and
     Dolev-Strong; per-cell fixed costs dominate and the domain pool fans
     cells out. *)

module Runner = Repro_core.Runner
module Params = Repro_aetree.Params
module Rng = Repro_util.Rng

(* Single cells run at n = 256. An owf cell's work varies by ~13% with its
   seed (certificate sizes follow the tree), so a steady median needs ~16
   distinct cells per run; at n = 256 they fit in 20 s. *)
let cell_n = 256
let beta = 0.1

(* Repetition [rep] of a run at [seed] measures one cell of [pool], the
   cell seeds whose outcomes expect.json pins. The run walks the pool in an
   order derived from [seed] that starts at its [seed]-th cell (cyclically,
   so seeds 1-3 start at pinned cells 1-3) and visits every cell before it
   repeats one. The pool holds cells of typical cost only (see
   [ledger.exe pin]), so a run's median measures a typical cell rather than
   the luck of its draw; every measured cell is checked against its pinned
   outcome, and no cell outside the verified population (such as a seed on
   the small-n beta cliff of conditions-40) is ever measured. *)
let cell_seed ~pool ~seed ~rep =
  let n = Array.length pool in
  let first = (((seed - 1) mod n) + n) mod n in
  let rest = Array.of_list (List.filter (( <> ) first) (List.init n Fun.id)) in
  Rng.shuffle (Rng.of_label (Rng.create seed) "cells") rest;
  pool.(if rep mod n = 0 then first else rest.((rep mod n) - 1))

type outcome = {
  cells : int;
  failed : int;  (** cells whose verdict contradicts their expectation *)
  rounds : int;  (** rounds to decide, summed over gated cells *)
  vt : int;  (** virtual time to decide (= rounds on lock-step backends) *)
  max_party_kib : float option;  (** honest max sent+received; sync cells *)
  pre_gst_lost : int;
  fingerprint : string list;
      (** one deterministic string per cell; matrix cells are (ok, rounds, vt)
          in the matrix's fixed cell order *)
}

type t = {
  name : string;
  domains : int;  (** pool size wanted; capped at the machine's count *)
  schemes : ((module Repro_core.Srds_intf.SCHEME) * int) list;
      (** SRDS instantiations set up per run, with their party count *)
  async : bool;  (** whether most messages cross the async executor *)
  run : seed:int -> outcome;
}

let sync_cell protocol ~seed =
  let r = Runner.run ~protocol ~n:cell_n ~beta ~seed () in
  {
    cells = 1;
    failed = (if r.Runner.r_ok then 0 else 1);
    rounds = r.r_rounds;
    vt = r.r_rounds;
    max_party_kib = Some (float_of_int r.r_max_bytes /. 1024.);
    pre_gst_lost = 0;
    fingerprint =
      [
        Printf.sprintf "rounds=%d max=%d total=%d p99=%.17g loc=%d %s" r.r_rounds
          r.r_max_bytes r.r_total_bytes r.r_p99_bytes r.r_locality r.r_note;
      ];
  }

let async_cell ~seed =
  let c =
    Runner.run_attack_cell ~protocol:Runner.This_work_owf ~strategy_name:"equivocate"
      ~condition_name:"delay" ~n:cell_n ~beta ~seed ~expect_fail:false ()
  in
  {
    cells = 1;
    failed = (if c.Runner.ac_ok then 0 else 1);
    rounds = c.ac_rounds;
    vt = c.ac_vt;
    max_party_kib = None;
    pre_gst_lost = c.ac_pre_gst_lost;
    fingerprint =
      [
        Printf.sprintf "ok=%b rounds=%d vt=%d decided=%.17g pre_gst_lost=%d post_gst_late=%d"
          c.ac_ok c.ac_rounds c.ac_vt c.ac_decided c.ac_pre_gst_lost c.ac_post_gst_late;
      ];
  }

(* A matrix cell fails when a gated cell that must pass did not, or when a
   planted teeth row passed; the beta >= 1/3 sanity rows fail as a group
   when none of them broke (the matrix's own teeth verdict). *)
let matrix ~seed =
  let m =
    Runner.attack_matrix ~n:40 ~betas:[ 0.125 ] ~sanity_betas:[ 0.45 ] ~seeds:[ seed ]
      ~strategies:[ "silent"; "equivocate" ]
      ~conditions:(List.map Repro_adversary.Condition.name (Repro_adversary.Condition.catalogue ()))
      ()
  in
  let cells = m.Runner.am_cells in
  let cell_failed (c : Runner.attack_cell) =
    if not c.ac_expect_fail then c.ac_gated && not c.ac_ok
    else c.ac_condition <> "none" && c.ac_ok
  in
  let gated = List.filter (fun (c : Runner.attack_cell) -> c.ac_gated) cells in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 gated in
  {
    cells = List.length cells;
    failed =
      List.length (List.filter cell_failed cells) + if m.am_teeth then 0 else 1;
    rounds = sum (fun c -> c.ac_rounds);
    vt = sum (fun c -> c.ac_vt);
    max_party_kib = None;
    pre_gst_lost = List.fold_left (fun acc c -> acc + c.Runner.ac_pre_gst_lost) 0 cells;
    fingerprint =
      List.map
        (fun (c : Runner.attack_cell) ->
          Printf.sprintf "%b %d %d" c.ac_ok c.ac_rounds c.ac_vt)
        cells;
  }

let owf = (module Repro_core.Srds_owf : Repro_core.Srds_intf.SCHEME)
let snark = (module Repro_core.Srds_snark : Repro_core.Srds_intf.SCHEME)

let all =
  [
    {
      name = Printf.sprintf "owf-sync-%d" cell_n;
      domains = 1;
      schemes = [ (owf, cell_n) ];
      async = false;
      run = sync_cell Runner.This_work_owf;
    };
    {
      name = Printf.sprintf "snark-sync-%d" cell_n;
      domains = 1;
      schemes = [ (snark, cell_n) ];
      async = false;
      run = sync_cell Runner.This_work_snark;
    };
    {
      name = Printf.sprintf "owf-async-delay-%d" cell_n;
      domains = 1;
      schemes = [ (owf, cell_n) ];
      async = true;
      run = async_cell;
    };
    {
      name = "conditions-40";
      domains = 2;
      schemes = [ (owf, 40); (snark, 40) ];
      async = true;
      run = matrix;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The uncharged set-up a cell of this workload pays before its first
   round: SRDS setup plus keygen over every virtual slot, with the same
   key material the cell derives from [seed]. *)
let setup w ~seed =
  List.iter
    (fun ((module S : Repro_core.Srds_intf.SCHEME), n) ->
      let module B = Repro_core.Srds_intf.Batch (S) in
      let slots = (Params.default n).Params.num_slots in
      let rng = Rng.of_label (Rng.create seed) "srds-setup" in
      let pp, master = S.setup rng ~n:slots in
      ignore (B.keygen_all pp master rng ~count:slots))
    w.schemes
